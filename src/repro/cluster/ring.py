"""Consistent-hash routing across cache shards.

The front-end maps every page key onto shards with a classic
consistent-hash ring: each shard owns ``vnodes`` points on a 64-bit
circle, and a key routes to the first shard point at or clockwise of the
key's own hash.  Retiring a shard (degraded device, scripted kill) only
remaps the keys that shard owned — the failover property the cluster
experiments measure.

Replication (``route_replicas``) extends the same walk: a key's replica
set is the first R *distinct* shards clockwise of its hash, skipping
repeated vnodes of shards already collected.  The successor-walk
construction keeps the minimal-move property in both directions: a
shard leaving the ring only moves its own keys onto their next
successors, and a repaired shard rejoining only takes its own keys
back.

Every hash is SHA-256 (simlint SIM003: builtin ``hash()`` is salted per
process and would make routing depend on ``PYTHONHASHSEED``).  The ring
never changes after construction, so the first time a page is routed
its whole clockwise walk is taken once and memoised per ring as the
page's *walk order*: every shard, each at its first point at or
clockwise of the page's hash.  Lookup with an exclusion set keeps the
walk order's live shards, so failover targets are exactly the next live
owners on the circle, and a lookup reads at most one entry per shard.
A lookup that runs out of shards — every shard excluded, or a
replication factor above the live population — raises the typed
:class:`~repro.cluster.errors.ClusterError` rather than silently
under-providing replicas.
"""

from __future__ import annotations

import bisect
import hashlib
from typing import Dict, Iterable, List, Tuple

from .errors import ClusterError

__all__ = ["HashRing"]


def _point(text: str) -> int:
    """Stable 64-bit position on the circle."""
    digest = hashlib.sha256(text.encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "big")


class HashRing:
    """Deterministic consistent-hash ring over integer shard ids."""

    def __init__(self, shard_ids: Iterable[int],
                 vnodes: int = 64) -> None:
        ids = list(shard_ids)
        if not ids:
            raise ValueError("ring needs at least one shard")
        if len(set(ids)) != len(ids):
            raise ValueError("duplicate shard ids")
        if vnodes < 1:
            raise ValueError("vnodes must be >= 1")
        self.shard_ids: Tuple[int, ...] = tuple(sorted(ids))
        self.vnodes = vnodes
        points: List[Tuple[int, int]] = [
            (_point(f"shard:{shard_id}:{replica}"), shard_id)
            for shard_id in self.shard_ids
            for replica in range(vnodes)]
        points.sort()
        self._points = points
        self._hashes = [position for position, _ in points]
        self._shard_set = frozenset(self.shard_ids)
        #: page -> every shard id in the order the clockwise walk from
        #: the page's position first reaches it.  The ring never changes
        #: after construction, so this is a pure function of the page,
        #: walked once per page.
        self._orders: Dict[int, Tuple[int, ...]] = {}

    def route(self, page: int, exclude: Iterable[int] = ()) -> int:
        """Owning shard for ``page``, skipping any shard in ``exclude``.

        Walks clockwise from the key's position; with exclusions the key
        lands on the next live shard's point, which is how traffic from
        a retired shard spreads across the survivors.  Raises
        :class:`ClusterError` when every shard is excluded.
        """
        return self.route_replicas(page, 1, exclude=exclude)[0]

    def route_replicas(self, page: int, replicas: int,
                       exclude: Iterable[int] = ()) -> Tuple[int, ...]:
        """The first ``replicas`` distinct live shards clockwise of
        ``page``'s position, in walk order.

        Element 0 is the key's primary (what :meth:`route` returns);
        the rest are its replica successors.  Reads are served by the
        first live member; writes fan out to all of them.  Raises
        :class:`ClusterError` when fewer than ``replicas`` distinct
        shards survive the exclusion — silently returning a short
        tuple would under-provide the key without anyone noticing.
        """
        if replicas < 1:
            raise ClusterError("replicas must be >= 1")
        excluded = frozenset(exclude)
        live = len(self._shard_set - excluded)
        if live < replicas:
            raise ClusterError(
                f"cannot place {replicas} replicas on {live} live "
                f"shard(s) ({len(self.shard_ids)} total, "
                f"{len(excluded & self._shard_set)} excluded)")
        order = self._orders.get(page)
        if order is None:
            order = self._orders[page] = self._walk(page)
        chosen: List[int] = []
        for shard_id in order:
            if shard_id not in excluded:
                chosen.append(shard_id)
                if len(chosen) == replicas:
                    break
        return tuple(chosen)

    def _walk(self, page: int) -> Tuple[int, ...]:
        """Every shard, in the order the clockwise walk from ``page``'s
        position first reaches one of its points."""
        points = self._points
        start = bisect.bisect_left(self._hashes, _point(f"page:{page}"))
        order: List[int] = []
        total = len(self.shard_ids)
        for offset in range(len(points)):
            shard_id = points[(start + offset) % len(points)][1]
            if shard_id not in order:
                order.append(shard_id)
                if len(order) == total:
                    break
        return tuple(order)
