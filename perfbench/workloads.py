"""The four benchmark workloads, driven through the simulator's public API.

Each workload splits one repeat into ``setup(seed)`` (input generation,
system construction, cache warm-up: untimed for ``ops_per_s`` and
reported as ``setup_s``) and ``run(state)`` (the timed section).  A
repeat always does the same fixed amount of simulated work, so for a
given seed its simulated statistics repeat exactly; the harness digests
them and times only host seconds.

``run`` returns an :class:`Outcome`: the op count, the simulated
statistics to digest, the deterministic per-layer counts (stats deltas
over the timed section only) and the correctness checks that failed.

The program is reached through module attributes (``macro.build_workload``
rather than a name imported into this module) so that the traced run's
wrappers, which are installed on those modules, see every call.
"""

from __future__ import annotations

import dataclasses
import hashlib
from dataclasses import dataclass, field
from random import Random
from typing import Any, Dict, List, Tuple

from repro.cluster import arrivals as arrivals_mod
from repro.cluster import cluster as cluster_mod
from repro.core import hierarchy
from repro.ecc import bch
from repro.sim import concurrent
from repro.workloads import macro

__all__ = ["Outcome", "WORKLOADS", "COUNT_NAMES"]

#: Deterministic per-layer counts every workload reports (0 where the
#: layer does not run).  ``events.steps`` is filled in from the traced
#: run's spans; the rest come from the program's own stats objects.
COUNT_NAMES = (
    "ops",
    "dram.hits", "dram.accesses",
    "cache.read_hits", "cache.read_lookups",
    "cache.gc_moves", "cache.writes",
    "flash.channel_stalls",
    "cluster.shed", "cluster.planned",
    "cluster.flash_hits", "cluster.flash_lookups",
)


@dataclass
class Outcome:
    """What one timed section produced."""

    ops: int
    #: Simulated statistics, JSON-ready; digested by the harness.
    stats: Dict[str, Any]
    counts: Dict[str, int] = field(default_factory=dict)
    #: Correctness checks that failed, as messages.
    failures: List[str] = field(default_factory=list)


def _check(failures: List[str], ok: bool, message: str) -> None:
    if not ok:
        failures.append(message)


def _delta(after: Any, before: Dict[str, Any]) -> Dict[str, Any]:
    return {key: value - before[key]
            for key, value in dataclasses.asdict(after).items()}


# -- trace replay (serial web search, concurrent OLTP) ----------------------

@dataclass
class _ReplayState:
    system: hierarchy.FlashBackedSystem
    records: list
    pdc_before: Dict[str, Any]
    cache_before: Dict[str, Any]


class Replay:
    """Warm a flash-backed system on a trace prefix, then time the rest.

    ``queue_depth=1`` with one channel and plane is the serial engine
    (``run_trace_concurrent`` routes it to ``run_trace``); anything else
    runs through the event loop.
    """

    def __init__(self, name: str, trace: str, dram_mb: int, flash_mb: int,
                 warmup: int, timed: int, queue_depth: int = 1,
                 channels: int = 1, planes: int = 1,
                 footprint_pages: int = 65_536) -> None:
        self.name = name
        self.trace = trace
        self.dram_bytes = dram_mb << 20
        self.flash_bytes = flash_mb << 20
        self.warmup = warmup
        self.timed = timed
        self.queue_depth = queue_depth
        self.channels = channels
        self.planes = planes
        self.footprint_pages = footprint_pages

    def inputs(self, seed: int) -> list:
        return macro.build_workload(self.trace, self.warmup + self.timed,
                                    seed=seed,
                                    footprint_pages=self.footprint_pages)

    def setup(self, seed: int) -> _ReplayState:
        records = self.inputs(seed)
        system = hierarchy.build_flash_system(dram_bytes=self.dram_bytes,
                                              flash_bytes=self.flash_bytes)
        system.run(records[:self.warmup])
        system.reset_measurement()
        return _ReplayState(
            system=system, records=records[self.warmup:],
            pdc_before=dataclasses.asdict(system.pdc.stats),
            cache_before=dataclasses.asdict(system.flash.stats))

    def run(self, state: _ReplayState) -> Outcome:
        system = state.system
        report = concurrent.run_trace_concurrent(
            system, state.records, queue_depth=self.queue_depth,
            channels=self.channels, planes=self.planes)
        pdc = _delta(report.pdc, state.pdc_before)
        cache = _delta(report.flash, state.cache_before)
        fills = system.stats
        queueing = report.queueing
        stats = {
            "requests": report.requests,
            "reads": report.reads,
            "writes": report.writes,
            "average_latency_us": report.average_latency_us,
            "wall_clock_us": report.wall_clock_us,
            "throughput_rps": report.throughput_rps,
            "flash_fills": fills.flash_fills,
            "disk_fills": fills.disk_fills,
            "disk_reads": report.disk_reads,
            "disk_writes": report.disk_writes,
            "pdc": pdc,
            "cache": cache,
            "controller": dataclasses.asdict(report.controller),
            "queueing": None if queueing is None else {
                "span_us": queueing.span_us,
                "channel_stalls": queueing.channel_stalls,
                "gc_events": queueing.gc_events,
                "channel_busy_us": queueing.channel_busy_us,
                "queue_delay_mean_us": queueing.mean_queue_delay_us,
                "queue_delay_p99_us": queueing.queue_delay.p99,
            },
        }
        failures: List[str] = []
        expected = sum(record.pages for record in state.records)
        _check(failures, report.requests == expected,
               f"replayed {report.requests} requests, trace has {expected}")
        _check(failures, report.reads == pdc["read_hits"] + pdc["read_misses"],
               "PDC read lookups differ from replayed reads")
        _check(failures,
               fills.flash_fills + fills.disk_fills == pdc["read_misses"],
               "flash + disk fills differ from PDC read misses")
        _check(failures, not report.flash_degraded,
               "flash cache degraded on a fault-free run")
        counts = dict.fromkeys(COUNT_NAMES, 0)
        counts.update({
            "ops": report.requests,
            "dram.hits": pdc["read_hits"] + pdc["write_hits"],
            "dram.accesses": (pdc["read_hits"] + pdc["read_misses"]
                              + pdc["write_hits"] + pdc["write_misses"]),
            "cache.read_hits": cache["read_hits"],
            "cache.read_lookups": cache["read_hits"] + cache["read_misses"],
            "cache.gc_moves": cache["gc_page_moves"],
            "cache.writes": cache["writes"],
            "flash.channel_stalls": (0 if queueing is None
                                     else queueing.channel_stalls),
        })
        return Outcome(ops=report.requests, stats=stats, counts=counts,
                       failures=failures)


# -- replicated cluster under a kill cascade and a rejoin --------------------

@dataclass
class _ClusterState:
    scenario: cluster_mod.ClusterScenario
    requests: int


class ClusterFailover:
    """4 shards, R=2, diurnal open-loop arrivals; shard 1 dies at 30% of
    the run, shard 2 at 60%, and shard 1 rejoins at 80% with catch-up
    sync.  ``run_cluster`` plans the arrivals itself, so setup times the
    same ``build_arrivals`` call to report what planning costs; that
    cost is also inside the timed section."""

    name = "cluster_failover"
    duration_s = 6.0

    def scenario(self, seed: int) -> cluster_mod.ClusterScenario:
        span_us = self.duration_s * 1e6
        return cluster_mod.ClusterScenario(
            shards=4, pattern="diurnal", rate_rps=20_000.0,
            duration_s=self.duration_s, workload="specweb99",
            footprint_pages=16_384, replicas=2,
            kill_shard=1, kill_at_us=0.3 * span_us,
            cascade=((2, 0.6 * span_us),), rejoin_at_us=0.8 * span_us,
            seed=seed)

    def inputs(self, seed: int) -> list:
        scenario = self.scenario(seed)
        return arrivals_mod.build_arrivals(
            scenario.pattern, scenario.rate_rps, scenario.duration_s,
            scenario.workload, scenario.footprint_pages, scenario.seed)

    def setup(self, seed: int) -> _ClusterState:
        return _ClusterState(scenario=self.scenario(seed),
                             requests=len(self.inputs(seed)))

    def run(self, state: _ClusterState) -> Outcome:
        result = cluster_mod.run_cluster(state.scenario, workers=1)
        planned = result.arrivals
        arrived = sum(shard["arrivals"] for shard in result.shards)
        failures: List[str] = []
        _check(failures, result.requests == state.requests,
               f"cluster planned {result.requests} requests, the arrival "
               f"plan has {state.requests}")
        _check(failures,
               planned == result.completed + result.shed + result.lost,
               f"planned {planned} != completed {result.completed} + shed "
               f"{result.shed} + lost {result.lost}")
        _check(failures, arrived - result.redirected == planned,
               f"arrived {arrived} - redirected {result.redirected} != "
               f"planned {planned}")
        _check(failures,
               result.sync_arrived == (result.sync_completed
                                       + result.sync_lost
                                       + result.sync_skipped),
               f"sync arrived {result.sync_arrived} != completed "
               f"{result.sync_completed} + lost {result.sync_lost} + "
               f"skipped {result.sync_skipped}")
        counters = result.telemetry.metrics.counters

        def counter(name: str) -> int:
            instrument = counters.get(name)
            return 0 if instrument is None else instrument.value

        hits, misses = counter("flash.hits"), counter("flash.misses")
        counts = dict.fromkeys(COUNT_NAMES, 0)
        counts.update({
            "ops": planned,
            "dram.hits": counter("pdc.hits"),
            "dram.accesses": counter("pdc.hits") + counter("pdc.misses"),
            "flash.channel_stalls": sum(shard["channel_stalls"]
                                        for shard in result.shards),
            "cluster.shed": result.shed,
            "cluster.planned": planned,
            "cluster.flash_hits": hits,
            "cluster.flash_lookups": hits + misses,
        })
        return Outcome(ops=planned, stats=result.as_dict(), counts=counts,
                       failures=failures)


# -- the real BCH codec ------------------------------------------------------

@dataclass
class _CodecState:
    codes: Dict[int, bch.BCHCode]
    #: (t, page payload, codeword bit positions to flip)
    pages: List[Tuple[int, bytes, List[int]]]


class BchCodec:
    """Encode and decode seeded random 2 KB pages with exactly ``t`` bit
    errors, for every strength the controller can select."""

    name = "bch_codec"
    page_bytes = 2048
    strengths = range(1, 13)
    pages_per_strength = 2

    def inputs(self, seed: int) -> List[Tuple[int, bytes, List[int]]]:
        return self.setup(seed).pages

    def setup(self, seed: int) -> _CodecState:
        codes = {t: bch.design_code_for_page(self.page_bytes, t)
                 for t in self.strengths}
        rng = Random(seed)
        pages = [(t, rng.randbytes(self.page_bytes),
                  rng.sample(range(codes[t].params.n), t))
                 for t in self.strengths
                 for _ in range(self.pages_per_strength)]
        return _CodecState(codes=codes, pages=pages)

    def run(self, state: _CodecState) -> Outcome:
        failures: List[str] = []
        rows = []
        for t, data, flips in state.pages:
            code = state.codes[t]
            parity_bits = code.params.parity_bits
            _, parity = code.encode(data)
            word = ((int.from_bytes(data, "little") << parity_bits)
                    | int.from_bytes(parity, "little"))
            for position in flips:
                word ^= 1 << position
            decoded, corrected = code.decode(
                (word >> parity_bits).to_bytes(len(data), "little"),
                (word & ((1 << parity_bits) - 1)).to_bytes(len(parity),
                                                           "little"))
            _check(failures, decoded == data,
                   f"t={t}: decoded page differs from the encoded page")
            _check(failures, corrected == t,
                   f"t={t}: decoder corrected {corrected} bits, "
                   f"{t} were injected")
            rows.append([t, parity.hex(), corrected,
                         hashlib.sha256(decoded).hexdigest()])
        counts = dict.fromkeys(COUNT_NAMES, 0)
        counts["ops"] = len(state.pages)
        return Outcome(ops=len(state.pages), stats={"pages": rows},
                       counts=counts, failures=failures)


WORKLOADS = {
    "replay_serial_web": Replay(
        "replay_serial_web", "websearch1", dram_mb=16, flash_mb=256,
        warmup=100_000, timed=100_000),
    "replay_concurrent_oltp": Replay(
        "replay_concurrent_oltp", "financial1", dram_mb=16, flash_mb=128,
        warmup=40_000, timed=20_000, queue_depth=16, channels=4, planes=2),
    "cluster_failover": ClusterFailover(),
    "bch_codec": BchCodec(),
}
