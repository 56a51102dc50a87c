"""Deterministic discrete-event core for the concurrent simulator.

The paper's Flash disk cache fronts a server with many requests in
flight; modelling that requires an event-driven clock rather than the
serial request loop of :mod:`repro.sim.engine`.  This module provides
the primitive: a :class:`EventLoop` whose priority queue is ordered by
``(time_us, seq)`` — the sequence number is assigned at post time, so
two events scheduled for the same instant always fire in posting order.
Nothing here reads the wall clock (simlint SIM001) and nothing here may
advance device clocks behind the loop's back (simlint SIM010): handlers
receive the event and take the current time from ``loop.now_us``.

Event types are the fixed vocabulary of the node engine
(:mod:`repro.sim.concurrent`) and its two modes:

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
from dataclasses import dataclass, field
from enum import Enum
from typing import Any, Callable, Dict, List, Optional, Tuple

__all__ = ["EventType", "Event", "EventLoop"]


class EventType(Enum):
    """The node engine's event vocabulary."""

    ARRIVE = "arrive"
    DISPATCH = "dispatch"
    COMPLETE = "complete"
    REJOIN = "rejoin"
    SYNC = "sync"


@dataclass
class Event:
    """One typed occurrence at one simulated instant."""

    type: EventType
    payload: Any = None


Handler = Callable[[Event], None]


class EventLoop:
    """Stable-ordered discrete-event loop.

    Determinism contract:

    * the queue orders on ``(time_us, seq)`` where ``seq`` is a counter
      incremented per post — ties in simulated time resolve in posting
      order, never by payload identity, hash order, or wall clock;
    * time is monotonic: posting into the past raises, and ``now_us``
      only moves when the loop pops an event;
    * handlers take the current time from :attr:`now_us`; they must not
      read wall clocks or advance device clocks directly (simlint
      SIM001/SIM010).
    """

    def __init__(self) -> None:
        self._heap: List[Tuple[float, int, Event]] = []
        self._seq = 0
        self._now_us = 0.0
        self._handlers: Dict[EventType, Handler] = {}
        #: Events dispatched so far, by type (observability/testing).
        self.dispatched: Dict[EventType, int] = {}

    @property
    def now_us(self) -> float:
        """Current simulated time (us)."""
        return self._now_us

    @property
    def pending(self) -> int:
        """Number of events still queued."""
        return len(self._heap)

    def register(self, event_type: EventType, handler: Handler) -> None:
        """Bind ``handler`` to ``event_type`` (one handler per type)."""
        if event_type in self._handlers:
            raise ValueError(f"handler already registered for {event_type}")
        self._handlers[event_type] = handler

    def post(self, delay_us: float, event: Event) -> None:
        """Schedule ``event`` ``delay_us`` after the current time."""
        if delay_us < 0:
            raise ValueError("delay_us must be non-negative")
        self.post_at(self._now_us + delay_us, event)

    def post_at(self, time_us: float, event: Event) -> None:
        """Schedule ``event`` at an absolute simulated time."""
        if time_us < self._now_us:
            raise ValueError(
                f"cannot post into the past ({time_us} < {self._now_us})")
        heapq.heappush(self._heap, (time_us, self._seq, event))
        self._seq += 1

    def step(self) -> Optional[Event]:
        """Pop and dispatch one event; ``None`` when the queue is empty."""
        if not self._heap:
            return None
        time_us, _, event = heapq.heappop(self._heap)
        self._now_us = time_us
        self.dispatched[event.type] = self.dispatched.get(event.type, 0) + 1
        try:
            handler = self._handlers[event.type]
        except KeyError:
            raise KeyError(f"no handler registered for {event.type}") \
                from None
        handler(event)
        return event

    def run(self) -> float:
        """Dispatch until the queue drains; returns the final time (us)."""
        while self.step() is not None:
            pass
        return self._now_us
