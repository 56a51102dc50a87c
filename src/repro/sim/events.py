"""Deterministic discrete-event core for the concurrent simulator.

The paper's Flash disk cache fronts a server with many requests in
flight; modelling that requires an event-driven clock rather than the
serial request loop of :mod:`repro.sim.engine`.  This module provides
the primitive: a :class:`EventLoop` whose heap holds plain
``(time_us, seq, type, payload)`` tuples ordered by ``(time_us, seq)``
— the sequence number is assigned at post time and is unique, so two
events scheduled for the same instant always fire in posting order and
the type and payload are never compared.  Nothing here reads the wall
clock (simlint SIM001) and nothing here may advance device clocks
behind the loop's back (simlint SIM010): a handler receives the event's
payload and takes the current time from ``loop.now_us``.

Event types are the fixed vocabulary of the node engine
(:mod:`repro.sim.concurrent`) and its two modes.  :class:`EventType`
is an ``IntEnum`` numbered from 0, so the handler table and the
dispatch counters are lists indexed by the type:

* ``ARRIVE``   — a request reaches the node (the closed window pulls the
  next trace request; the open-loop shard takes a planned arrival);
* ``DISPATCH`` — a request leaves the host queue and starts service;
* ``COMPLETE`` — a request finished; its window slot frees;
* ``REJOIN``   — a repaired cluster shard re-entered the ring
  (:mod:`repro.cluster.shard`, repair/re-admission);
* ``SYNC``     — one anti-entropy catch-up op (a sync write on the
  rejoining shard, or the paired source read on a neighbour).

Channel stalls, GC bursts and scrub passes are plain counters on the
engine, not events: no handler ever had to run at their instant.
"""

from __future__ import annotations

import heapq
from enum import IntEnum
from typing import Any, Callable, Dict, List, Optional, Tuple

__all__ = ["EventType", "EventLoop"]


class EventType(IntEnum):
    """The node engine's event vocabulary (list indices 0..4)."""

    ARRIVE = 0
    DISPATCH = 1
    COMPLETE = 2
    REJOIN = 3
    SYNC = 4


#: A handler receives the event's payload.
Handler = Callable[[Any], None]
#: One heap entry: ``(time_us, seq, type, payload)``.
Entry = Tuple[float, int, EventType, Any]


class EventLoop:
    """Stable-ordered discrete-event loop.

    Determinism contract:

    * the queue orders on ``(time_us, seq)`` where ``seq`` is a counter
      incremented per post — ties in simulated time resolve in posting
      order, never by payload identity, hash order, or wall clock;
    * time is monotonic: posting into the past (or at a NaN instant)
      raises, and ``now_us`` only moves when the loop pops an event;
    * handlers take the current time from :attr:`now_us`; they must not
      read wall clocks or advance device clocks directly (simlint
      SIM001/SIM010).
    """

    def __init__(self) -> None:
        self._heap: List[Entry] = []
        self._seq = 0
        self._now_us = 0.0
        self._handlers: List[Optional[Handler]] = [None] * len(EventType)
        self._counts: List[int] = [0] * len(EventType)

    @property
    def now_us(self) -> float:
        """Current simulated time (us)."""
        return self._now_us

    @property
    def pending(self) -> int:
        """Number of events still queued."""
        return len(self._heap)

    @property
    def dispatched(self) -> Dict[EventType, int]:
        """Events dispatched so far, by type (types that never fired are
        absent); a fresh dict built on each read."""
        return {event_type: count
                for event_type, count in zip(EventType, self._counts)
                if count}

    def register(self, event_type: EventType, handler: Handler) -> None:
        """Bind ``handler`` to ``event_type`` (one handler per type)."""
        if self._handlers[event_type] is not None:
            raise ValueError(
                f"handler already registered for {event_type!r}")
        self._handlers[event_type] = handler

    def post(self, delay_us: float, event_type: EventType,
             payload: Any = None) -> None:
        """Schedule an event ``delay_us`` after the current time."""
        # Written so that NaN fails the guard too.
        if not delay_us >= 0:
            raise ValueError(f"delay_us must be non-negative, not {delay_us}")
        heapq.heappush(self._heap, (self._now_us + delay_us, self._seq,
                                    event_type, payload))
        self._seq += 1

    def post_at(self, time_us: float, event_type: EventType,
                payload: Any = None) -> None:
        """Schedule an event at an absolute simulated time."""
        if not time_us >= self._now_us:
            raise ValueError(
                f"cannot post into the past ({time_us} < {self._now_us})")
        heapq.heappush(self._heap, (time_us, self._seq, event_type, payload))
        self._seq += 1

    def step(self) -> Optional[Entry]:
        """Pop and dispatch one event; returns its heap entry, or
        ``None`` when the queue is empty."""
        if not self._heap:
            return None
        entry = heapq.heappop(self._heap)
        time_us, _, event_type, payload = entry
        self._now_us = time_us
        self._counts[event_type] += 1
        handler = self._handlers[event_type]
        if handler is None:
            raise KeyError(f"no handler registered for {event_type!r}")
        handler(payload)
        return entry

    def run(self) -> float:
        """Dispatch until the queue drains; returns the final time (us)."""
        step = self.step
        while step() is not None:
            pass
        return self._now_us
