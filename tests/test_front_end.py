"""Differential tests of the cluster front end against its reference.

The trace generators, the arrival sampler, the ring, the chaos timeline
and the stream and sync planners are memoised or table driven.  Each is
checked here against the straightforward form it replaced, kept in
``tests/front_end_reference.py``: same records, same arrival stream,
same routes and errors, same dead sets, and the same planned streams
list for list.
"""

from __future__ import annotations

import pickle

import pytest
from hypothesis import assume, given, settings, strategies as st

from repro.cluster import (
    ChaosSchedule,
    ClusterError,
    ClusterScenario,
    HashRing,
    KillSpec,
    RejoinSpec,
)
from repro.cluster.arrivals import (
    ARRIVAL_PATTERNS,
    build_arrivals,
    sample_arrival_times,
)
from repro.cluster.cluster import _plan_streams, _plan_sync, _Planner
from repro.parallel import derive_seed
from repro.workloads import (
    MACRO_WORKLOADS,
    OP_READ,
    OP_WRITE,
    SyntheticConfig,
    TraceRecord,
    build_workload,
)
from repro.workloads.macro import MacroWorkloadSpec, _MICRO_SPECS
from repro.workloads.synthetic import (
    ExponentialPopularity,
    UniformPopularity,
    ZipfPopularity,
    exponential_trace,
    uniform_trace,
    zipf_trace,
)

from . import front_end_reference as ref


# -- TraceRecord --------------------------------------------------------------

class TestTraceRecordPins:
    def test_hash_and_repr_match_the_frozen_dataclass(self):
        record = TraceRecord(12, OP_WRITE, 3, 0.25)
        assert hash(record) == hash((12, OP_WRITE, 3, 0.25))
        assert repr(record) == \
            "TraceRecord(page=12, op='w', pages=3, timestamp=0.25)"
        assert repr(TraceRecord(page=0, op=OP_READ)) == \
            "TraceRecord(page=0, op='r', pages=1, timestamp=0.0)"
        assert record == TraceRecord(page=12, op=OP_WRITE, pages=3,
                                     timestamp=0.25)
        assert (record.page, record.op, record.pages, record.timestamp) \
            == (12, OP_WRITE, 3, 0.25)

    @pytest.mark.parametrize("build", [
        lambda: TraceRecord(0, "x"),
        lambda: TraceRecord(-1, OP_READ),
        lambda: TraceRecord(0, OP_READ, 0),
        lambda: TraceRecord._make((0, "q", 1, 0.0)),
        lambda: TraceRecord._make((-3, OP_WRITE, 1, 0.0)),
        lambda: TraceRecord(5, OP_READ)._replace(op="x"),
        lambda: TraceRecord(5, OP_READ)._replace(pages=0),
    ])
    def test_every_constructor_validates(self, build):
        with pytest.raises(ValueError):
            build()

    def test_error_messages(self):
        with pytest.raises(ValueError, match=r"^op must be 'r' or 'w'$"):
            TraceRecord(0, "x")
        with pytest.raises(ValueError,
                           match=r"^invalid extent page=-1 pages=1$"):
            TraceRecord._make((-1, OP_READ, 1, 0.0))
        with pytest.raises(ValueError,
                           match=r"^invalid extent page=4 pages=0$"):
            TraceRecord(4, OP_READ)._replace(pages=0)

    def test_pickle_round_trip(self):
        record = TraceRecord(7, OP_READ, 2, 1.5)
        back = pickle.loads(pickle.dumps(record))
        assert back == record and type(back) is TraceRecord
        assert back.is_read and list(back.expand()) == [7, 8]

    def test_replace_keeps_the_type(self):
        moved = TraceRecord(7, OP_READ)._replace(page=9)
        assert type(moved) is TraceRecord and moved.page == 9


def _fields(records):
    return [(record.page, record.op, record.pages, record.timestamp)
            for record in records]


class TestGeneratorsMatchTheReferenceLoops:
    @pytest.mark.parametrize("name", sorted(MACRO_WORKLOADS))
    @pytest.mark.parametrize("seed", [1, 77])
    def test_macro_workloads(self, name, seed):
        records = build_workload(name, 1500, seed=seed,
                                 footprint_pages=4096)
        expected = ref.macro_trace(MACRO_WORKLOADS[name], 1500, seed, 4096)
        assert _fields(records) == expected
        assert all(type(record) is TraceRecord for record in records)

    @pytest.mark.parametrize("name", sorted(_MICRO_SPECS))
    @pytest.mark.parametrize("seed", [3, 1234])
    def test_micro_workloads_by_name(self, name, seed):
        records = build_workload(name, 1200, seed=seed,
                                 footprint_pages=3000)
        spec = MacroWorkloadSpec(
            name=name, description="", footprint_bytes=0,
            read_fraction=0.9, tail=_MICRO_SPECS[name])
        expected = ref.macro_trace(spec, 1200, seed, 3000)
        assert _fields(records) == expected

    @pytest.mark.parametrize("seed", [5, 1234])
    def test_synthetic_generators(self, seed):
        config = SyntheticConfig(footprint_pages=2048, num_records=1000,
                                 read_fraction=0.7, seed=seed)
        for records, distribution in (
                (uniform_trace(config), UniformPopularity(2048)),
                (zipf_trace(1.2, config), ZipfPopularity(2048, 1.2)),
                (exponential_trace(0.01, config),
                 ExponentialPopularity(2048, 0.01))):
            assert _fields(records) == \
                ref.micro_trace(distribution, config)


# -- arrivals -----------------------------------------------------------------

class TestArrivalsMatchTheReference:
    @pytest.mark.parametrize("pattern", ARRIVAL_PATTERNS)
    @pytest.mark.parametrize("seed", [1, 42])
    def test_sampled_times(self, pattern, seed):
        assert sample_arrival_times(pattern, 3000.0, 0.5, seed) == \
            ref.arrival_times(pattern, 3000.0, 0.5, seed)

    @pytest.mark.parametrize("workload", ["specweb99", "dbt2",
                                          "financial1", "alpha2"])
    def test_build_arrivals(self, workload):
        seed = 11
        times = ref.arrival_times("diurnal", 4000.0, 0.4, seed)
        spec = MACRO_WORKLOADS.get(workload) or MacroWorkloadSpec(
            name=workload, description="", footprint_bytes=0,
            read_fraction=0.9, tail=_MICRO_SPECS[workload])
        records = ref.macro_trace(spec, len(times),
                                  derive_seed(seed, "cluster:keys"), 2048)
        assert build_arrivals("diurnal", 4000.0, 0.4, workload, 2048,
                              seed) == ref.zip_arrivals(times, records)


# -- ring ---------------------------------------------------------------------

def _route_or_error(route, *args):
    try:
        return route(*args)
    except ClusterError as error:
        return ("error", str(error))


class TestRingMatchesTheWalk:
    @settings(max_examples=120, deadline=None)
    @given(shard_ids=st.sets(st.integers(0, 40), min_size=1, max_size=7),
           vnodes=st.integers(1, 24),
           queries=st.lists(
               st.tuples(st.integers(0, 300), st.integers(-1, 8),
                         st.frozensets(st.integers(-2, 42), max_size=8)),
               min_size=1, max_size=25))
    def test_route_replicas(self, shard_ids, vnodes, queries):
        ring = HashRing(shard_ids, vnodes=vnodes)
        # Repeat the queries so the second pass runs on a warm memo.
        for page, replicas, exclude in queries + queries:
            expected = _route_or_error(ref.route_replicas, shard_ids,
                                       vnodes, page, replicas, exclude)
            assert _route_or_error(ring.route_replicas, page, replicas,
                                   exclude) == expected
            primary = _route_or_error(ref.route_replicas, shard_ids,
                                      vnodes, page, 1, exclude)
            got = _route_or_error(ring.route, page, exclude)
            assert got == (primary if primary[0] == "error"
                           else primary[0])

    def test_error_cases(self):
        ring = HashRing(range(3), vnodes=8)
        for replicas, exclude in ((0, ()), (-1, ()), (3, (0,)),
                                  (1, (0, 1, 2)), (4, ())):
            expected = _route_or_error(ref.route_replicas, range(3), 8, 5,
                                       replicas, exclude)
            assert expected[0] == "error"
            assert _route_or_error(ring.route_replicas, 5, replicas,
                                   exclude) == expected


# -- chaos timeline -----------------------------------------------------------

#: A coarse grid makes same-instant kills and rejoins common.
_INSTANTS = st.sampled_from([0.0, 10.0, 10.0, 25.0, 40.0, 55.5, 70.0,
                             100.0])


@st.composite
def _schedules(draw, shards=6):
    victims = draw(st.lists(st.integers(0, shards - 1), unique=True,
                            max_size=shards - 1))
    kills = tuple(KillSpec(shard, draw(_INSTANTS)) for shard in victims)
    rejoins = []
    for kill in kills:
        if draw(st.booleans()):
            delay = draw(st.sampled_from([0.5, 15.0, 15.0, 30.0, 60.0]))
            rejoins.append(RejoinSpec(kill.shard, kill.at_us + delay))
    return ChaosSchedule(kills=kills, rejoins=tuple(rejoins))


def _probe_times(chaos):
    instants = {spec.at_us for spec in chaos.kills + chaos.rejoins}
    probes = {-1.0, 0.0, 1e9}
    for instant in instants:
        probes.update((instant, instant - 0.25, instant + 0.25))
    return sorted(probes)


class TestChaosMatchesTheScan:
    @settings(max_examples=150, deadline=None)
    @given(chaos=_schedules(),
           extra=st.lists(st.floats(-5.0, 200.0), max_size=10))
    def test_dead_at_kill_at_rejoin_at(self, chaos, extra):
        for time_us in _probe_times(chaos) + extra:
            assert chaos.dead_at(time_us) == ref.dead_at(chaos, time_us)
            start_us, end_us = chaos.epoch_at(time_us)
            assert start_us <= time_us < end_us
            for inside in (start_us, (start_us + end_us) / 2.0):
                if start_us <= inside < end_us:
                    assert ref.dead_at(chaos, inside) == \
                        ref.dead_at(chaos, time_us)
        for shard in range(-1, 8):
            assert chaos.kill_at(shard) == ref.kill_at(chaos, shard)
            assert chaos.rejoin_at(shard) == ref.rejoin_at(chaos, shard)

    @settings(max_examples=60, deadline=None)
    @given(shards=st.integers(2, 6), kills=st.integers(1, 5),
           repair=st.booleans(), seed=st.integers(0, 1000))
    def test_sampled_schedules(self, shards, kills, repair, seed):
        assume(kills < shards)
        chaos = ChaosSchedule.sample(shards, 1.0, kills=kills,
                                     repair=repair, seed=seed)
        for time_us in _probe_times(chaos):
            assert chaos.dead_at(time_us) == ref.dead_at(chaos, time_us)

    def test_same_instant_kills_and_rejoin_boundaries(self):
        chaos = ChaosSchedule(
            kills=(KillSpec(0, 50.0), KillSpec(3, 50.0), KillSpec(1, 80.0)),
            rejoins=(RejoinSpec(3, 80.0), RejoinSpec(0, 90.0)))
        assert chaos.dead_at(49.999) == frozenset()
        assert chaos.dead_at(50.0) == {0, 3}
        assert chaos.dead_at(80.0) == {0, 1}
        assert chaos.dead_at(90.0) == {1}
        for time_us in _probe_times(chaos):
            assert chaos.dead_at(time_us) == ref.dead_at(chaos, time_us)

    def test_nan_instants_are_refused(self):
        """A NaN instant orders against nothing: the scan treated a NaN
        kill as dead for the whole run while the shard itself never
        died at a real instant."""
        nan = float("nan")
        with pytest.raises(ClusterError, match="must not be NaN"):
            ChaosSchedule(kills=(KillSpec(1, nan),))
        with pytest.raises(ClusterError, match="must not be NaN"):
            ChaosSchedule(kills=(KillSpec(1, 5.0),),
                          rejoins=(RejoinSpec(1, nan),))
        with pytest.raises(ClusterError, match="must not be NaN"):
            ClusterScenario(shards=3, kill_shard=1,
                            kill_at_us=nan).chaos()

    def test_table_stays_out_of_eq_hash_and_repr(self):
        kills = (KillSpec(1, 10.0),)
        rejoins = (RejoinSpec(1, 20.0),)
        chaos = ChaosSchedule(kills=kills, rejoins=rejoins)
        assert chaos == ChaosSchedule(kills=kills, rejoins=rejoins)
        assert hash(chaos) == hash((kills, rejoins))
        assert repr(chaos) == (
            "ChaosSchedule(kills=(KillSpec(shard=1, at_us=10.0),), "
            "rejoins=(RejoinSpec(shard=1, at_us=20.0),))")
        assert pickle.loads(pickle.dumps(chaos)).dead_at(15.0) == {1}


# -- planners -----------------------------------------------------------------

@st.composite
def _plans(draw):
    shards = draw(st.integers(2, 5))
    replicas = draw(st.integers(1, shards - 1))
    chaos = draw(_schedules(shards=shards))
    assume(len(chaos.kills) <= shards - replicas)
    times = st.one_of(_INSTANTS, st.floats(0.0, 180.0))
    raw = draw(st.lists(st.tuples(times, st.integers(0, 40),
                                  st.booleans()), max_size=60))
    if draw(st.booleans()):
        raw.sort(key=lambda item: item[0])
    arrivals = [(time_us, seq, page, is_read)
                for seq, (time_us, page, is_read) in enumerate(raw)]
    return shards, replicas, chaos, arrivals


class TestPlannersMatchPerArrivalRouting:
    @settings(max_examples=100, deadline=None)
    @given(plan=_plans(), vnodes=st.integers(1, 12))
    def test_streams_and_sync(self, plan, vnodes):
        shards, replicas, chaos, arrivals = plan
        scenario = ClusterScenario(shards=shards, replicas=replicas,
                                   vnodes=vnodes)
        planner = _Planner(scenario, chaos)
        assert _plan_streams(planner, arrivals) == ref.plan_streams(
            chaos, shards, vnodes, replicas, arrivals)
        assert _plan_sync(planner, arrivals) == ref.plan_sync(
            chaos, shards, vnodes, replicas, arrivals)

    def test_workload_scale_plan(self):
        scenario = ClusterScenario(
            shards=4, pattern="diurnal", rate_rps=6000.0, duration_s=0.5,
            footprint_pages=2048, replicas=2, kill_shard=1,
            kill_at_us=150_000.0, cascade=((2, 300_000.0),),
            rejoin_at_us=400_000.0, vnodes=16, seed=5)
        chaos = scenario.chaos()
        arrivals = build_arrivals(scenario.pattern, scenario.rate_rps,
                                  scenario.duration_s, scenario.workload,
                                  scenario.footprint_pages, scenario.seed)
        planner = _Planner(scenario, chaos)
        streams, planned_ops = _plan_streams(planner, arrivals)
        assert (streams, planned_ops) == ref.plan_streams(
            chaos, 4, 16, 2, arrivals)
        assert planned_ops > len(arrivals)
        sync = _plan_sync(planner, arrivals)
        assert sync and sync == ref.plan_sync(chaos, 4, 16, 2, arrivals)
