"""Host-speed calibration for the benchmark's time metrics.

On a shared host the speed of the same Python code drifts. On the
2-vCPU VM this benchmark was tuned on it drifted by up to 40% over a few
minutes, so raw run medians of one workload taken minutes apart differed
by more than any useful regression bound.

The simulator's cost mixes two kinds of host work: interpreter-bound
dict and object work that stays in cache, and scattered accesses to a
working set of tens of megabytes. A drift slows the two by different
amounts. So the calibration times one fixed loop of each kind:

* :func:`interpreter_round`: an LRU ``OrderedDict``, a dict of slotted
  objects and a small heap, all in cache;
* :func:`memory_round`: random reads from a 64 MB array.

The drift also changes within a run, so each repeat is paired with its
own rounds. One round of each loop runs just before the repeat's set-up
and one just after its timed section. The repeat's slowdown is the
geometric mean of the two loops' mean round times, each divided by its
reference time. On the tuning host, over six runs per workload (one
seed each), dividing every repeat by its own slowdown cut the spread of
run medians as follows:

* ``replay_serial_web``: from 0.27 to 0.04;
* ``replay_concurrent_oltp``: from 0.30 to 0.07.

Dividing by one loop alone, or by the run's median rounds, cut it far
less.

Neither loop touches the simulator, so a change to the program cannot
change their times. They run in a helper process, so the 64 MB array
stays out of the benchmark process's peak memory. The benchmark waits
while they run.
"""

from __future__ import annotations

import heapq
import math
import statistics
import subprocess
import sys
import time
from array import array
from collections import OrderedDict
from random import Random
from typing import IO, Any, Optional, Sequence, Tuple

__all__ = ["Calibrator", "interpreter_round", "memory_round", "slowdown"]

#: Median round times on the tuning host (seconds).  Fixed constants:
#: they only set the scale of the reported figures.
REFERENCE_INTERPRETER_S = 0.042
REFERENCE_MEMORY_S = 0.072

_ARRAY_ITEMS = 8_000_000
_READS = 300_000


class _Entry:
    __slots__ = ("key", "hits")

    def __init__(self, key: int) -> None:
        self.key = key
        self.hits = 0


def interpreter_round(requests: int = 20_000, span: int = 200_000) -> float:
    """Run the in-cache loop once; returns its host seconds."""
    began = time.perf_counter()
    rng = Random(7)
    table = {}
    lru: OrderedDict = OrderedDict()
    heap: list = []
    for index in range(requests):
        key = int(span * rng.random() ** 2)
        entry = table.get(key)
        if entry is None:
            entry = table[key] = _Entry(key)
        entry.hits += 1
        if key in lru:
            lru.move_to_end(key)
        else:
            lru[key] = entry
            if len(lru) > 20_000:
                lru.popitem(last=False)
        heapq.heappush(heap, (index * 0.5, index, entry))
        if len(heap) > 64:
            heapq.heappop(heap)
    return time.perf_counter() - began


def memory_round(values: "array[int]", positions: "array[int]") -> float:
    """Read ``values`` at every position once; returns its host seconds."""
    began = time.perf_counter()
    total = 0
    for position in positions:
        total += values[position]
    return time.perf_counter() - began


def _serve(requests: IO[str], replies: IO[str]) -> None:
    """Helper-process loop: one pair of rounds per request line, until
    the requests stream closes."""
    values = array("q", range(_ARRAY_ITEMS))
    rng = Random(3)
    positions = array("q", (rng.randrange(_ARRAY_ITEMS)
                            for _ in range(_READS)))
    for _ in requests:
        replies.write(f"{interpreter_round()!r} "
                      f"{memory_round(values, positions)!r}\n")
        replies.flush()


class Calibrator:
    """Owns the helper process; use as a context manager."""

    def __init__(self) -> None:
        self._process: Optional[subprocess.Popen] = None

    def __enter__(self) -> "Calibrator":
        self._process = subprocess.Popen(
            [sys.executable, __file__], stdin=subprocess.PIPE,
            stdout=subprocess.PIPE, text=True)
        return self

    def __exit__(self, *exc: Any) -> None:
        process = self._process
        process.stdin.close()
        try:
            process.wait(timeout=30)
        except subprocess.TimeoutExpired:
            process.kill()
            process.wait()
        process.stdout.close()

    def round(self) -> Tuple[float, float]:
        """Time one round of each loop in the helper process; returns
        (interpreter seconds, memory seconds)."""
        process = self._process
        process.stdin.write("\n")
        process.stdin.flush()
        reply = process.stdout.readline()
        if not reply:
            raise RuntimeError("calibration helper exited early")
        interpreter_s, memory_s = reply.split()
        return float(interpreter_s), float(memory_s)


def slowdown(rounds: Sequence[Tuple[float, float]]) -> float:
    """How much slower than the reference host ``rounds`` ran: the
    geometric mean of the two loops' mean round time, each divided by
    its reference time."""
    interpreter = statistics.fmean(r[0] for r in rounds)
    memory = statistics.fmean(r[1] for r in rounds)
    return math.sqrt(interpreter / REFERENCE_INTERPRETER_S
                     * memory / REFERENCE_MEMORY_S)


if __name__ == "__main__":
    _serve(sys.stdin, sys.stdout)
