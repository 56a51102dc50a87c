"""Event-driven node engine (DESIGN.md section 14).

:class:`NodeEngine` is one node with many requests in flight: an
outstanding-request window of ``queue_depth`` slots, a FIFO host queue
behind it, and a ``channels x planes`` NAND fabric
(:class:`repro.flash.channels.NandScheduler`).  Two modes drive it and
differ only in where arrivals come from and what a completion records:

* :func:`run_trace_concurrent` — a closed window over a trace: each
  completion pulls the next trace request into the freed slot.  The
  report gains a :class:`~repro.sim.engine.QueueingStats` block
  splitting response time into service (what the serial model charges)
  and queue delay (window and channel/plane waits);
* :func:`repro.cluster.shard.run_shard` — open-loop arrivals with
  shedding, retirement and catch-up sync (see that module).

Determinism and the compatibility path
--------------------------------------

State and timing are deliberately split:

* **functional work is serial in admission order.**  :meth:`admit`
  executes a request immediately through the hierarchy's non-blocking
  ``submit_read``/``submit_write`` entry points — so cache contents,
  wear, faults, and every counter are *identical at any queue depth or
  channel count* (and, in the closed window, identical to the serial
  engine).  Concurrency changes when work *finishes*, never what work
  happens;
* **timing is replayed on the event loop.**  The captured op stream is
  placed on the channel/plane fabric; any wait is charged to the
  request's queue delay, and its completion time is
  ``dispatch + service + waits``.  Background work the request
  generated (GC, scrub) occupies the fabric — delaying *other*
  requests — but is not charged to its own response time, matching the
  paper's "all GCs are performed in the background".

Channel stalls, GC bursts and scrub passes are counted where they are
detected; they are not events, because nothing waits on them.

At ``queue_depth=1, channels=1, planes=1`` there is nothing to overlap,
so :func:`run_trace_concurrent` routes to the serial engine unchanged —
every fig1b..fig13 result is byte-identical by construction (asserted
in ``tests/test_events.py``).
"""

from __future__ import annotations

from collections import deque
from typing import Any, Deque, Iterable, Iterator, Optional, Tuple

from ..core.hierarchy import DramOnlySystem, FlashBackedSystem, PendingRequest
from ..flash.channels import ChannelConfig, NandScheduler
from ..telemetry import LatencyHistogram, Telemetry, TraceSampler
from ..workloads.trace import OP_READ, TraceRecord
from .engine import QueueingStats, SimulationReport, run_trace, \
    summarise_system
from .events import EventLoop, EventType
from .server import ServerModel

__all__ = ["NodeEngine", "run_trace_concurrent"]


class NodeEngine:
    """One node run's event-loop state (not reusable).

    The engine owns admission (:meth:`admit`), DISPATCH (placing a
    request's ops on the fabric) and the completion tail (close the
    request, free its slot, dispatch the oldest waiter).  A mode
    registers ARRIVE and any events of its own, admits requests, and
    records each completion in :meth:`_finish`.  Handlers take simulated
    time only from ``loop.now_us`` (simlint SIM010); ties resolve in
    posting order.
    """

    def __init__(self, system: DramOnlySystem | FlashBackedSystem,
                 queue_depth: int, config: ChannelConfig,
                 sampler: Optional[TraceSampler] = None) -> None:
        self.system = system
        self.queue_depth = queue_depth
        self.sampler = sampler
        self.loop = EventLoop()
        self.scheduler = NandScheduler(config)
        self.queue_delay = LatencyHistogram("queue_delay_us")
        self.service_latency = LatencyHistogram("service_latency_us")
        #: Requests the system has executed, this run's admissions
        #: included (the sampler's trace position).
        self.position = system.stats.requests
        #: Window slots held by dispatched, not yet completed requests.
        self.slots = 0
        #: Admitted requests waiting for a window slot, oldest first.
        self.wait: Deque[PendingRequest] = deque()
        self.channel_stalls = 0
        self.gc_events = 0
        self.scrub_events = 0
        self._cpu_us = system.config.cpu_us_per_request
        self._last_scrub_passes = self._scrub_passes()
        self.loop.register(EventType.DISPATCH, self._on_dispatch)
        self.loop.register(EventType.COMPLETE, self._on_complete)

    def _scrub_passes(self) -> int:
        scrubber = getattr(self.system, "scrubber", None)
        return scrubber.stats.passes if scrubber is not None else 0

    def admit(self, page: int, is_read: bool, context: Any = None) -> None:
        """Execute one request now and queue it for the fabric.

        Functional execution happens at admission, in admission order —
        the determinism anchor (see the module docstring).  The request
        takes a free window slot, or waits in the host queue.
        """
        system = self.system
        if is_read:
            pending = system.submit_read(page)
        else:
            pending = system.submit_write(page)
        pending.arrive_us = self.loop.now_us
        pending.context = context
        self.position += 1
        sampler = self.sampler
        if sampler is not None and self.position >= sampler.next_at:
            sampler.maybe_sample(self.position)
        if pending.gc_us > 0:
            self.gc_events += 1
        scrub_passes = self._scrub_passes()
        if scrub_passes > self._last_scrub_passes:
            self._last_scrub_passes = scrub_passes
            self.scrub_events += 1
        if self.slots < self.queue_depth:
            self.slots += 1
            # Host CPU/network time precedes storage dispatch (the same
            # per-request constant the serial wall clock charges).
            self.loop.post(self._cpu_us, EventType.DISPATCH, pending)
        else:
            self.wait.append(pending)

    def _on_dispatch(self, pending: PendingRequest) -> None:
        """Place the request's op stream on the channel/plane fabric."""
        loop = self.loop
        ready_us = pending.dispatch_us = loop.now_us
        wait_us = 0.0
        schedule = self.scheduler.schedule
        for op in pending.ops:
            placed = schedule(ready_us, op.latency_us)
            if placed.wait_us > 0:
                self.channel_stalls += 1
                wait_us += placed.wait_us
            ready_us = placed.end_us
        # Response = service as charged by the serial model, plus every
        # wait the op chain suffered.  Background op *latency* (GC,
        # scrub rewrites) occupies the fabric but is excluded from
        # service, so it delays neighbours rather than this request.
        finish_us = pending.dispatch_us + pending.service_us + wait_us
        loop.post_at(finish_us, EventType.COMPLETE, pending)

    def _on_complete(self, pending: PendingRequest) -> None:
        now_us = self.loop.now_us
        pending.finish_us = now_us
        self.system.complete_request(pending)
        self._finish(pending, now_us)
        self.slots -= 1
        if self.wait:
            # The freed slot picks up the oldest waiter; it pays the
            # same host CPU step an immediately-admitted request does.
            self.slots += 1
            self.loop.post(self._cpu_us, EventType.DISPATCH,
                           self.wait.popleft())

    def _finish(self, pending: PendingRequest, now_us: float) -> None:
        """Record one completed request (the mode's accounting)."""
        raise NotImplementedError

    def run(self) -> float:
        """Drain the loop; returns the makespan (us): the last event or
        the last op on the fabric, whichever ends later."""
        loop_end_us = self.loop.run()
        horizon_us = self.scheduler.horizon_us()
        return loop_end_us if loop_end_us >= horizon_us else horizon_us


def _expand(records: Iterable[TraceRecord]) -> Iterator[Tuple[int, bool]]:
    """Flatten records to (page, is_read) requests in trace order."""
    for first, op, pages, _ in records:
        is_read = op == OP_READ
        for page in range(first, first + pages):
            yield page, is_read


class _TraceWindow(NodeEngine):
    """Closed window over a trace: every completion posts the ARRIVE
    that pulls the next trace request into the freed slot."""

    def __init__(self, system: DramOnlySystem | FlashBackedSystem,
                 records: Iterable[TraceRecord], queue_depth: int,
                 config: ChannelConfig,
                 sampler: Optional[TraceSampler]) -> None:
        super().__init__(system, queue_depth, config, sampler)
        self._source = _expand(records)
        self._exhausted = False
        self.loop.register(EventType.ARRIVE, self._on_arrive)

    def _on_arrive(self, _payload: None) -> None:
        try:
            page, is_read = next(self._source)
        except StopIteration:
            self._exhausted = True
            return
        self.admit(page, is_read)

    def _finish(self, pending: PendingRequest, now_us: float) -> None:
        # max(finish - dispatch - service, 0): nothing waits in the host
        # queue here, so this is the fabric wait (DESIGN.md section 14
        # on why the open-loop mode keeps its own expression).
        self.queue_delay.observe(pending.queue_delay_us)
        self.service_latency.observe(pending.service_us)
        if not self._exhausted:
            self.loop.post(0.0, EventType.ARRIVE)

    def run(self) -> float:
        """Prime the window, drain the loop; returns the makespan (us)."""
        for _ in range(self.queue_depth):
            self.loop.post(0.0, EventType.ARRIVE)
        return super().run()


def run_trace_concurrent(system: DramOnlySystem | FlashBackedSystem,
                         records: Iterable[TraceRecord],
                         queue_depth: int = 1,
                         channels: int = 1,
                         planes: int = 1,
                         drain: bool = True,
                         telemetry: Optional[Telemetry] = None,
                         server: Optional[ServerModel] = None
                         ) -> SimulationReport:
    """Run a trace through the event-driven concurrent engine.

    ``queue_depth`` sizes the outstanding-request window, ``channels``
    and ``planes`` size the NAND fabric.  The returned report's
    ``wall_clock_us`` is the event-loop makespan, ``throughput_rps`` is
    this run's requests over that makespan, and ``queueing`` carries the
    service/queue-delay split; every functional metric (cache stats,
    wear, miss rates, average service latency) is identical to the
    serial engine's at any setting.

    ``queue_depth=1, channels=1, planes=1`` is the compatibility mode:
    the call routes to :func:`~repro.sim.engine.run_trace` and the
    result is byte-identical to the legacy serial path.
    """
    if queue_depth < 1:
        raise ValueError("queue_depth must be >= 1")
    config = ChannelConfig(channels=channels, planes=planes)
    if queue_depth == 1 and config.resources == 1:
        return run_trace(system, records, drain=drain,
                         telemetry=telemetry, server=server)
    sampler = None
    if telemetry is not None:
        telemetry.attach(system)
        sampler = TraceSampler(telemetry, system,
                               interval=telemetry.sample_interval)
    engine = _TraceWindow(system, records, queue_depth, config, sampler)
    requests_before = system.stats.requests
    span_us = engine.run()
    if sampler is not None:
        sampler.finalize(engine.position)
    ran = system.stats.requests - requests_before
    throughput_rps = ran / (span_us * 1e-6) if span_us > 0 else 0.0
    queueing = QueueingStats(
        queue_depth=queue_depth,
        channels=channels,
        planes=planes,
        span_us=span_us,
        queue_delay=engine.queue_delay,
        service_latency=engine.service_latency,
        channel_busy_us=list(engine.scheduler.channel_busy_us),
        channel_stalls=engine.channel_stalls,
        gc_events=engine.gc_events,
        scrub_events=engine.scrub_events,
    )
    return summarise_system(system, drain=drain, telemetry=telemetry,
                            server=server, wall_clock_us=span_us,
                            throughput_rps=throughput_rps,
                            queueing=queueing)
