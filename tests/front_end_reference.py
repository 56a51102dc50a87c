"""Straightforward cluster front-end algorithms, kept as a test-only
reference.

The cluster front end (:mod:`repro.workloads`, :mod:`repro.cluster`)
replaced these per-call forms with memoised and table-driven ones:

* the trace generators' per-record loops, before their lookups were
  bound once per trace (records are returned as plain tuples);
* the arrival sampler that asks :func:`intensity` by name for every
  candidate, and the key zip over expanded ``(page, is_read)`` requests;
* the ring's clockwise walk over vnode points from the page's start
  position, redone on every lookup;
* :meth:`ChaosSchedule.dead_at` as a linear scan of the kills, and
  ``kill_at``/``rejoin_at`` as scans of the specs;
* the stream and sync planners, routing each arrival on its own.

The differential tests in ``tests/test_front_end.py`` compare each
against the shipped code.  Only the hash (``ring._point``), the RNG
seeding and the popularity distributions are shared.
"""

from __future__ import annotations

import bisect
import math
from functools import lru_cache
from random import Random
from typing import Dict, FrozenSet, Iterable, List, Optional, Tuple

from repro.cluster.arrivals import Arrival
from repro.cluster.chaos import ChaosSchedule
from repro.cluster.errors import ClusterError
from repro.cluster.ring import _point
from repro.parallel import derive_seed
from repro.workloads.macro import MacroWorkloadSpec
from repro.workloads.synthetic import PopularityDistribution, SyntheticConfig

Record = Tuple[int, str, int, float]
Node = Tuple[int, int]


# -- trace generators ---------------------------------------------------------

def _scatter(rank: int, n: int) -> int:
    multiplier = 2_654_435_761
    while math.gcd(multiplier, n) != 1:
        multiplier += 2
    return (rank * multiplier + 12_345) % n


def macro_trace(spec: MacroWorkloadSpec, num_records: int, seed: int,
                n: int) -> List[Record]:
    rng = Random(seed)
    distribution = spec.make_distribution(n)
    log_cursor = 0
    log_region_start = n - max(n // 20, 1)
    out: List[Record] = []
    for index in range(num_records):
        is_read = rng.random() < spec.read_fraction
        if not is_read and rng.random() < spec.sequential_write_fraction:
            page = log_region_start + log_cursor % (n - log_region_start)
            log_cursor += 1
            out.append((page, "w", 1, index * 1e-4))
            continue
        rank = distribution.sample_rank(rng.random())
        out.append((_scatter(rank, n), "r" if is_read else "w", 1,
                    index * 1e-4))
    return out


def micro_trace(distribution: PopularityDistribution,
                config: SyntheticConfig) -> List[Record]:
    rng = Random(config.seed)
    n = config.footprint_pages
    out: List[Record] = []
    for index in range(config.num_records):
        rank = distribution.sample_rank(rng.random())
        page = _scatter(rank, n)
        op = "r" if rng.random() < config.read_fraction else "w"
        out.append((page, op, 1, index * 1e-4))
    return out


# -- arrivals -----------------------------------------------------------------

def intensity(pattern: str, x: float) -> float:
    if pattern == "steady":
        return 1.0
    if pattern == "diurnal":
        return 0.15 + 0.85 * 0.5 * (1.0 - math.cos(2.0 * math.pi * x))
    if pattern == "flash_crowd":
        return 1.0 if 0.45 <= x < 0.6 else 0.25
    if pattern == "drain":
        return max(0.0, 1.0 - x)
    raise ValueError(f"unknown arrival pattern {pattern!r}")


def arrival_times(pattern: str, peak_rps: float, duration_s: float,
                  seed: int) -> List[float]:
    rng = Random(derive_seed(seed, f"cluster:arrivals:{pattern}"))
    duration_us = duration_s * 1e6
    peak_per_us = peak_rps / 1e6
    times: List[float] = []
    t_us = 0.0
    while True:
        t_us += rng.expovariate(peak_per_us)
        if t_us >= duration_us:
            return times
        if rng.random() < intensity(pattern, t_us / duration_us):
            times.append(t_us)


def zip_arrivals(times: List[float],
                 records: Iterable[Record]) -> List[Arrival]:
    requests = [(page, op == "r") for first, op, pages, _ in records
                for page in range(first, first + pages)]
    return [(time_us, seq, page, is_read)
            for seq, (time_us, (page, is_read))
            in enumerate(zip(times, requests))]


# -- ring ---------------------------------------------------------------------

@lru_cache(maxsize=None)
def _ring_points(ids: Tuple[int, ...],
                 vnodes: int) -> List[Tuple[int, int]]:
    return sorted((_point(f"shard:{shard_id}:{replica}"), shard_id)
                  for shard_id in ids for replica in range(vnodes))


def route_replicas(shard_ids: Iterable[int], vnodes: int, page: int,
                   replicas: int,
                   exclude: Iterable[int] = ()) -> Tuple[int, ...]:
    """The clockwise vnode walk from the page's position, every call."""
    ids = tuple(sorted(shard_ids))
    points = _ring_points(ids, vnodes)
    if replicas < 1:
        raise ClusterError("replicas must be >= 1")
    excluded = frozenset(exclude)
    shard_set = frozenset(ids)
    live = len(shard_set - excluded)
    if live < replicas:
        raise ClusterError(
            f"cannot place {replicas} replicas on {live} live "
            f"shard(s) ({len(ids)} total, "
            f"{len(excluded & shard_set)} excluded)")
    start = bisect.bisect_left([position for position, _ in points],
                               _point(f"page:{page}"))
    chosen: List[int] = []
    for offset in range(len(points)):
        shard_id = points[(start + offset) % len(points)][1]
        if shard_id in excluded or shard_id in chosen:
            continue
        chosen.append(shard_id)
        if len(chosen) == replicas:
            return tuple(chosen)
    raise AssertionError("walk exhausted")  # pragma: no cover


# -- chaos timeline -----------------------------------------------------------

def kill_at(chaos: ChaosSchedule, shard: int) -> Optional[float]:
    for kill in chaos.kills:
        if kill.shard == shard:
            return kill.at_us
    return None


def rejoin_at(chaos: ChaosSchedule, shard: int) -> Optional[float]:
    for rejoin in chaos.rejoins:
        if rejoin.shard == shard:
            return rejoin.at_us
    return None


def dead_at(chaos: ChaosSchedule, time_us: float) -> FrozenSet[int]:
    dead = set()
    for kill in chaos.kills:
        if time_us < kill.at_us:
            continue
        rejoin_us = rejoin_at(chaos, kill.shard)
        if rejoin_us is None or time_us < rejoin_us:
            dead.add(kill.shard)
    return frozenset(dead)


# -- planners -----------------------------------------------------------------

def _node_for(chaos: ChaosSchedule, shard: int, time_us: float) -> Node:
    rejoin_us = rejoin_at(chaos, shard)
    if rejoin_us is not None and time_us >= rejoin_us:
        return (shard, 1)
    return (shard, 0)


def plan_streams(chaos: ChaosSchedule, shards: int, vnodes: int,
                 replicas: int, arrivals: List[Arrival],
                 ) -> Tuple[Dict[Node, List[Arrival]], int]:
    """Route every arrival on its own: dead set, walk and nodes."""
    streams: Dict[Node, List[Arrival]] = {
        (shard, 0): [] for shard in range(shards)}
    for rejoin in chaos.rejoins:
        streams[(rejoin.shard, 1)] = []
    planned_ops = 0
    for arrival in arrivals:
        time_us, _, page, is_read = arrival
        targets = route_replicas(range(shards), vnodes, page, replicas,
                                 exclude=dead_at(chaos, time_us))
        chosen = targets[:1] if is_read else targets
        nodes = [_node_for(chaos, shard, time_us) for shard in chosen]
        planned_ops += len(nodes)
        for node in nodes:
            streams[node].append(arrival)
    return streams, planned_ops


def plan_sync(chaos: ChaosSchedule, shards: int, vnodes: int,
              replicas: int, arrivals: List[Arrival],
              ) -> Dict[Node, List[Arrival]]:
    """The catch-up planner with one as-if-alive test per arrival."""
    sync_streams: Dict[Node, List[Arrival]] = {}
    for rejoin in sorted(chaos.rejoins, key=lambda spec: spec.shard):
        shard = rejoin.shard
        kill_us = kill_at(chaos, shard)
        assert kill_us is not None
        moved: Dict[int, None] = {}
        for time_us, _, page, _ in arrivals:
            if not kill_us <= time_us < rejoin.at_us or page in moved:
                continue
            as_if_alive = set(dead_at(chaos, time_us))
            as_if_alive.discard(shard)
            if shard in route_replicas(range(shards), vnodes, page,
                                       replicas, exclude=as_if_alive):
                moved[page] = None
        dead_at_rejoin = set(dead_at(chaos, rejoin.at_us))
        dead_at_rejoin.add(shard)
        for seq, page in enumerate(moved):
            try:
                source = route_replicas(range(shards), vnodes, page, 1,
                                        exclude=dead_at_rejoin)[0]
            except ClusterError:
                continue
            sync_streams.setdefault((shard, 1), []).append(
                (rejoin.at_us, seq, page, False))
            sync_streams.setdefault(
                _node_for(chaos, source, rejoin.at_us), []).append(
                (rejoin.at_us, seq, page, True))
    for stream in sync_streams.values():
        stream.sort(key=lambda a: (a[0], a[1]))
    return sync_streams
