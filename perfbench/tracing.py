"""Outside-in span tracing of the simulator's layers.

:class:`Tracer` wraps the public entry points listed in :data:`LAYERS`
for the duration of a traced run and restores the originals afterwards,
so the untraced run executes the program exactly as shipped.  A wrapper
records one span per call: name, start, end, parent span and run id.
Spans stay in compact in-memory arrays until :meth:`Tracer.write`.

A method is wrapped on the class that defines it.  A module-level
function is replaced under every name any loaded ``repro`` module binds
it to (``from .engine import run_trace`` makes a second binding), so
callers reach the wrapper whichever name they use.
"""

from __future__ import annotations

import functools
import gzip
import importlib
import os
import sys
import time
from array import array
from contextlib import contextmanager
from typing import Any, Callable, Dict, Iterator, List, Optional, Tuple

__all__ = ["LAYERS", "LAYER_NAMES", "Tracer", "self_times"]

#: layer -> entry points, as ``module:qualname``.
LAYERS: Dict[str, Tuple[str, ...]] = {
    "workloads": ("repro.workloads.macro:build_workload",),
    "hierarchy": (
        "repro.core.hierarchy:_SystemBase.read",
        "repro.core.hierarchy:_SystemBase.write",
        "repro.core.hierarchy:_SystemBase.submit_read",
        "repro.core.hierarchy:_SystemBase.submit_write",
        "repro.core.hierarchy:_SystemBase.complete_request",
        "repro.core.hierarchy:FlashBackedSystem.drain",
    ),
    "dram": (
        "repro.dram.page_cache:PrimaryDiskCache.read",
        "repro.dram.page_cache:PrimaryDiskCache.write",
        "repro.dram.page_cache:PrimaryDiskCache.flush",
    ),
    "cache.read": ("repro.core.cache:FlashDiskCache.read",),
    "cache.insert_clean": ("repro.core.cache:FlashDiskCache.insert_clean",),
    # Write-region GC runs inside write(); flush() cleans the same region.
    "cache.write": (
        "repro.core.cache:FlashDiskCache.write",
        "repro.core.cache:FlashDiskCache.flush",
    ),
    "controller": (
        "repro.core.controller:ProgrammableFlashController.read",
        "repro.core.controller:ProgrammableFlashController.program",
        "repro.core.controller:ProgrammableFlashController.erase",
        "repro.core.controller:ProgrammableFlashController.submit_read",
        "repro.core.controller:ProgrammableFlashController.submit_program",
    ),
    "flash.device": (
        "repro.flash.device:FlashDevice.read_page",
        "repro.flash.device:FlashDevice.program_page",
        "repro.flash.device:FlashDevice.erase_block",
    ),
    "flash.scheduler": ("repro.flash.channels:NandScheduler.schedule",),
    "disk": (
        "repro.disk.model:DiskModel.read",
        "repro.disk.model:DiskModel.write",
    ),
    "events": (
        "repro.sim.events:EventLoop.post",
        "repro.sim.events:EventLoop.post_at",
        "repro.sim.events:EventLoop.step",
    ),
    "sim.engine": (
        "repro.sim.engine:run_trace",
        "repro.sim.concurrent:run_trace_concurrent",
    ),
    "telemetry": (
        "repro.telemetry.metrics:LatencyHistogram.observe",
        "repro.telemetry.metrics:LatencyHistogram.merge",
    ),
    "cluster.arrivals": ("repro.cluster.arrivals:build_arrivals",),
    "cluster.ring": (
        "repro.cluster.ring:HashRing.route",
        "repro.cluster.ring:HashRing.route_replicas",
    ),
    "cluster.shard": ("repro.cluster.shard:run_shard",),
    "cluster.plan": ("repro.cluster.cluster:run_cluster",),
    "parallel": ("repro.parallel.runner:sweep",),
    "ecc.encode": ("repro.ecc.bch:BCHCode.encode",),
    "ecc.syndromes": ("repro.ecc.bch:BCHCode.syndromes",),
    "ecc.decode_bits": ("repro.ecc.bch:BCHCode.decode_bits",),
}

LAYER_NAMES = tuple(LAYERS)


def _resolve(entry: str) -> Tuple[Any, str, Callable[..., Any]]:
    """``module:Class.method`` or ``module:function`` -> (owner, attr, fn)."""
    module_name, qualname = entry.split(":")
    owner: Any = importlib.import_module(module_name)
    *path, attr = qualname.split(".")
    for part in path:
        owner = getattr(owner, part)
    return owner, attr, owner.__dict__[attr]


def self_times(parent: "array[int]", start: "array[float]",
               end: "array[float]") -> List[float]:
    """Each span's duration minus the part of it its children cover.

    Spans are indexed in start order and every parent precedes its
    children, so one pass merges each parent's child intervals (clipped
    to the parent) as they arrive.
    """
    count = len(start)
    covered = [0.0] * count
    reach = [float("-inf")] * count
    for index in range(count):
        owner = parent[index]
        if owner < 0:
            continue
        lo = max(start[index], start[owner], reach[owner])
        hi = min(end[index], end[owner])
        if hi > lo:
            covered[owner] += hi - lo
        if hi > reach[owner]:
            reach[owner] = hi
    return [end[index] - start[index] - covered[index]
            for index in range(count)]


class Tracer:
    """Span recorder that installs itself on the program's entry points."""

    def __init__(self) -> None:
        #: Span name table; a span stores an index into it.
        self.names: List[str] = []
        self._name_ids: Dict[str, int] = {}
        #: Span name index -> layer (None for the harness's own spans).
        self.layer_of: List[Optional[str]] = []
        self.name_id = array("i")
        self.run_id = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.run = 0
        self._stack = [-1]
        self._saved: List[Tuple[Any, str, Any]] = []

    # -- recording -----------------------------------------------------------

    def _intern(self, name: str, layer: Optional[str]) -> int:
        name_id = self._name_ids.get(name)
        if name_id is None:
            name_id = self._name_ids[name] = len(self.names)
            self.names.append(name)
            self.layer_of.append(layer)
        return name_id

    def _open(self, name_id: int) -> int:
        index = len(self.start)
        self.name_id.append(name_id)
        self.run_id.append(self.run)
        self.parent.append(self._stack[-1])
        self.start.append(0.0)
        self.end.append(0.0)
        self._stack.append(index)
        return index

    @contextmanager
    def span(self, name: str) -> Iterator[None]:
        """A harness-level span (setup or timed phase) around layer calls."""
        index = self._open(self._intern(name, None))
        self.start[index] = time.perf_counter()
        try:
            yield
        finally:
            self.end[index] = time.perf_counter()
            self._stack.pop()

    def _wrap(self, fn: Callable[..., Any], name_id: int
              ) -> Callable[..., Any]:
        open_span = self._open
        stack = self._stack
        start = self.start
        end = self.end
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args: Any, **kwargs: Any) -> Any:
            index = open_span(name_id)
            start[index] = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end[index] = clock()
                stack.pop()

        return traced

    # -- installation --------------------------------------------------------

    def install(self) -> None:
        """Wrap every entry point (see the module docstring)."""
        if self._saved:
            raise RuntimeError("tracer already installed")
        try:
            for layer, entries in LAYERS.items():
                for entry in entries:
                    owner, attr, fn = _resolve(entry)
                    wrapper = self._wrap(
                        fn, self._intern(entry.split(":")[1], layer))
                    if isinstance(owner, type):
                        self._replace(owner, attr, fn, wrapper)
                        continue
                    for module in list(sys.modules.values()):
                        name = getattr(module, "__name__", "")
                        if name != "repro" and not name.startswith("repro."):
                            continue
                        for key, value in list(vars(module).items()):
                            if value is fn:
                                self._replace(module, key, fn, wrapper)
        except BaseException:
            self.uninstall()
            raise

    def _replace(self, owner: Any, attr: str, original: Any,
                 wrapper: Any) -> None:
        setattr(owner, attr, wrapper)
        self._saved.append((owner, attr, original))

    def uninstall(self) -> None:
        """Put every original back, newest replacement first."""
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    @contextmanager
    def installed(self) -> Iterator["Tracer"]:
        self.install()
        try:
            yield self
        finally:
            self.uninstall()

    # -- derived views -------------------------------------------------------

    def layer_totals(self) -> Dict[int, Dict[str, List[float]]]:
        """run id -> layer -> [calls, self seconds]."""
        selfs = self_times(self.parent, self.start, self.end)
        totals: Dict[int, Dict[str, List[float]]] = {}
        layer_of = self.layer_of
        for index, self_s in enumerate(selfs):
            layer = layer_of[self.name_id[index]]
            if layer is None:
                continue
            run = totals.setdefault(self.run_id[index], {})
            row = run.get(layer)
            if row is None:
                row = run[layer] = [0, 0.0]
            row[0] += 1
            row[1] += self_s
        return totals

    def count_under(self, name: str, phase: str) -> Dict[int, int]:
        """run id -> calls of span ``name`` beneath a ``phase`` root span."""
        root = array("i", [0]) * len(self.start)
        counts: Dict[int, int] = {}
        names = self.names
        for index in range(len(self.start)):
            owner = self.parent[index]
            root[index] = index if owner < 0 else root[owner]
            if names[self.name_id[index]] == name \
                    and names[self.name_id[root[index]]] == phase:
                run = self.run_id[index]
                counts[run] = counts.get(run, 0) + 1
        return counts

    def write(self, path: str) -> None:
        """Write every span as gzipped CSV:
        ``run,span,parent,name,start_s,end_s`` (seconds since the first
        span started)."""
        os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
        epoch = self.start[0] if len(self.start) else 0.0
        names = self.names
        with gzip.open(path, "wt", compresslevel=1) as out:
            out.write("run,span,parent,name,start_s,end_s\n")
            for index in range(len(self.start)):
                out.write(
                    f"{self.run_id[index]},{index},{self.parent[index]},"
                    f"{names[self.name_id[index]]},"
                    f"{self.start[index] - epoch:.9f},"
                    f"{self.end[index] - epoch:.9f}\n")
