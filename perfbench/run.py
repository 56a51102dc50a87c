"""Simulator benchmark: host throughput, set-up time, memory, and a
traced per-layer breakdown.

Run from the repository root::

    python3 perfbench/run.py --workload replay_serial_web --seed 1 \\
        --seconds 28 --trace 0

``--trace 0`` measures the end-to-end metrics with the program exactly
as shipped, and scales each repeat's times to a reference host speed
measured around it (``calibration.py``).  ``--trace 1`` first times a
few untraced repeats, then repeats the workload with every layer entry
point wrapped and reports per-layer calls and self time, the
deterministic per-layer ratios, and the tracing overhead.  Spans are written to
``.perfbench_out/<workload>-seed<seed>.spans.csv.gz``.

Every repeat replays the same fixed simulated work from a freshly built
state, so its simulated statistics repeat exactly.  A repeat fails if it
raises, if a workload's correctness check fails, or if its statistics
digest differs from the other repeats' (and, for the default seed, from
``reference.json``).  Failed repeats are counted, never timed.  Human
readable lines go first; the last line of standard output is one JSON
object.  The exit code is 0 only when every repeat passed.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import resource
import statistics
import sys
import time
import traceback
from contextlib import nullcontext
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
REFERENCE = Path(__file__).resolve().parent / "reference.json"
OUT_DIR = ROOT / ".perfbench_out"
#: The seed ``reference.json`` pins.
DEFAULT_SEED = 1
#: Fewest repeats per measured run, whatever ``--seconds`` says.
MIN_REPEATS = 3
#: Share of a traced invocation's budget spent on the untraced baseline.
BASELINE_SHARE = 0.5
#: Traced repeats are capped to bound the span memory and output file.
MAX_TRACED_REPEATS = 3


def bootstrap() -> None:
    """Import the simulator from this checkout's ``src`` and nowhere else."""
    if not (SRC / "repro" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no simulator sources at {SRC}")
    for path in (str(ROOT), str(SRC)):
        if path not in sys.path:
            sys.path.insert(0, path)
    import repro
    if not Path(repro.__file__).resolve().is_relative_to(SRC):
        raise SystemExit(f"perfbench: imported repro from {repro.__file__}, "
                         f"not from {SRC}")


@dataclass
class Repeat:
    """One setup + timed section."""

    setup_s: float = 0.0
    timed_s: float = 0.0
    ops: int = 0
    digest: str = ""
    counts: Dict[str, int] = field(default_factory=dict)
    errors: List[str] = field(default_factory=list)
    #: Calibration rounds from just before set-up and just after the
    #: timed section, as (interpreter seconds, memory seconds).
    calibration: List[Tuple[float, float]] = field(default_factory=list)

    @property
    def ops_per_s(self) -> float:
        return self.ops / self.timed_s

    @property
    def slowdown(self) -> float:
        from perfbench.calibration import slowdown
        return slowdown(self.calibration)

    @property
    def wall_s(self) -> float:
        return self.setup_s + self.timed_s


def digest_of(stats: Dict[str, Any]) -> str:
    """SHA-256 of the simulated statistics in canonical JSON."""
    text = json.dumps(stats, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


def reference_digest(workload: str, seed: int) -> Optional[str]:
    if seed != DEFAULT_SEED:
        return None
    return json.loads(REFERENCE.read_text())["digests"][workload]


def run_repeat(workload: Any, seed: int, tracer: Any = None,
               calibrator: Any = None) -> Repeat:
    """Set up and run one repeat; exceptions become the repeat's error.
    A ``calibrator`` times its rounds just before set-up and just after
    the timed section."""
    gc.collect()
    repeat = Repeat()
    if calibrator is not None:
        repeat.calibration.append(calibrator.round())
    clock = time.perf_counter
    try:
        with tracer.span("setup") if tracer else nullcontext():
            began = clock()
            state = workload.setup(seed)
            repeat.setup_s = clock() - began
        with tracer.span("timed") if tracer else nullcontext():
            began = clock()
            outcome = workload.run(state)
            repeat.timed_s = clock() - began
    except Exception:  # a failed repeat is counted, not fatal
        repeat.errors.append(traceback.format_exc())
        return repeat
    if calibrator is not None:
        repeat.calibration.append(calibrator.round())
    repeat.ops = outcome.ops
    repeat.digest = digest_of(outcome.stats)
    repeat.counts = outcome.counts
    repeat.errors.extend(outcome.failures)
    return repeat


def run_repeats(workload: Any, seed: int, budget_s: float, min_repeats: int,
                max_repeats: Optional[int] = None, tracer: Any = None,
                calibrator: Any = None) -> List[Repeat]:
    """Repeat at least ``min_repeats`` times, then while another repeat
    of typical length still ends within ``budget_s`` host seconds."""
    repeats: List[Repeat] = []
    walls: List[float] = []
    began = time.perf_counter()
    while len(repeats) != max_repeats and (
            len(repeats) < min_repeats
            or time.perf_counter() - began + statistics.median(walls)
            <= budget_s):
        if tracer is not None:
            tracer.run = len(repeats)
        lap = time.perf_counter()
        repeats.append(run_repeat(workload, seed, tracer, calibrator))
        walls.append(time.perf_counter() - lap)
    return repeats


def verify(repeats: List[Repeat], expected: Optional[str]) -> None:
    """Fail every repeat whose digest differs from ``expected`` (or, when
    there is no reference, from the first repeat that produced one)."""
    if expected is None:
        expected = next((r.digest for r in repeats if r.digest), None)
    for repeat in repeats:
        if repeat.digest and repeat.digest != expected:
            repeat.errors.append(f"simulated-statistics digest "
                                 f"{repeat.digest} != expected {expected}")


def quartiles(values: List[float]) -> tuple:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def describe(name: str, values: List[float], unit: str) -> str:
    q1, _, q3 = quartiles(values)
    return (f"{name}: median {statistics.median(values):.6g} {unit} "
            f"(IQR {q1:.6g}..{q3:.6g}, min {min(values):.6g}, "
            f"n={len(values)})")


def end_to_end(repeats: List[Repeat]) -> Dict[str, Dict[str, Any]]:
    """Median time metrics, each repeat scaled to the reference host
    speed by its own calibration rounds (see ``calibration.py``), and the
    process's peak memory."""
    ok = [r for r in repeats if not r.errors]
    if not ok:
        return {}
    raw_ops_per_s = [r.ops_per_s for r in ok]
    raw_setup_s = [r.setup_s for r in ok]
    slowdowns = [r.slowdown for r in ok]
    print(describe("raw ops_per_s", raw_ops_per_s, "ops/s"))
    print(describe("raw setup_s", raw_setup_s, "s"))
    print("host slowdown by repeat: "
          + " ".join(f"{v:.4g}" for v in slowdowns))
    ops_per_s = [v * f for v, f in zip(raw_ops_per_s, slowdowns)]
    setup_s = [v / f for v, f in zip(raw_setup_s, slowdowns)]
    print(describe("ops_per_s", ops_per_s, "ops/s"))
    print(describe("setup_s", setup_s, "s"))
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    print(f"peak_rss_mb: {peak_rss_mb:.6g} MB")
    return {
        "ops_per_s": {"value": statistics.median(ops_per_s), "unit": "1/s"},
        "setup_s": {"value": statistics.median(setup_s), "unit": "s"},
        "peak_rss_mb": {"value": peak_rss_mb, "unit": "MB"},
    }


#: Ratio metric -> (numerator count, denominator count).
RATIOS = {
    "dram.hit_ratio": ("dram.hits", "dram.accesses"),
    "cache.read_hit_ratio": ("cache.read_hits", "cache.read_lookups"),
    "cache.gc_moves_per_write": ("cache.gc_moves", "cache.writes"),
    "events.per_op": ("events.steps", "ops"),
    "flash.channel_stalls_per_op": ("flash.channel_stalls", "ops"),
    "cluster.shed_ratio": ("cluster.shed", "cluster.planned"),
    "cluster.flash_hit_ratio": ("cluster.flash_hits",
                                "cluster.flash_lookups"),
}


def per_layer(tracer: Any, traced: List[Repeat], baseline: List[Repeat]
              ) -> Dict[str, Dict[str, Any]]:
    """Per-layer metrics from the traced repeats' spans and counts."""
    from perfbench.tracing import LAYER_NAMES
    ok = [index for index, r in enumerate(traced) if not r.errors]
    base_ok = [r for r in baseline if not r.errors]
    if not ok or not base_ok:
        return {}
    totals = tracer.layer_totals()
    metrics: Dict[str, Dict[str, Any]] = {}
    for layer in LAYER_NAMES:
        rows = [totals.get(run, {}).get(layer, [0, 0.0]) for run in ok]
        metrics[f"{layer}.calls"] = {"value": rows[0][0], "unit": "count"}
        metrics[f"{layer}.self_s"] = {
            "value": statistics.median(row[1] for row in rows),
            "unit": "s"}
        print(f"{layer}: {rows[0][0]} calls, self "
              f"{metrics[f'{layer}.self_s']['value']:.6g} s per repeat")
    counts = dict(traced[ok[0]].counts)
    counts["events.steps"] = tracer.count_under(
        "EventLoop.step", "timed").get(ok[0], 0)
    for name, value in counts.items():
        metrics[name] = {"value": value, "unit": "count"}
    for ratio, (num, den) in RATIOS.items():
        value = counts[num] / counts[den] if counts[den] else 0.0
        metrics[ratio] = {"value": value, "unit": "ratio"}
        print(f"{ratio} = {value:.6g} ({num} {counts[num]} / "
              f"{den} {counts[den]})")
    traced_s = statistics.median(traced[index].wall_s for index in ok)
    untraced_s = statistics.median(r.wall_s for r in base_ok)
    metrics["trace.traced_s"] = {"value": traced_s, "unit": "s"}
    metrics["trace.untraced_s"] = {"value": untraced_s, "unit": "s"}
    metrics["trace.overhead_ratio"] = {"value": traced_s / untraced_s,
                                       "unit": "ratio"}
    print(f"trace.overhead_ratio = {traced_s / untraced_s:.6g} (traced "
          f"{traced_s:.6g} s / untraced {untraced_s:.6g} s per repeat)")
    return metrics


def measure(name: str, seed: int, seconds: float, trace: bool
            ) -> Dict[str, Any]:
    """Run one workload; returns the result object printed last."""
    from perfbench.calibration import Calibrator
    from perfbench.tracing import Tracer
    from perfbench.workloads import WORKLOADS
    workload = WORKLOADS[name]
    expected = reference_digest(name, seed)
    if not trace:
        with Calibrator() as calibrator:
            repeats = run_repeats(workload, seed, seconds, MIN_REPEATS,
                                  calibrator=calibrator)
        verify(repeats, expected)
        report_failures(repeats)
        metrics = end_to_end(repeats)
    else:
        baseline = run_repeats(workload, seed, seconds * BASELINE_SHARE, 2)
        verify(baseline, expected)
        if expected is None:
            expected = next((r.digest for r in baseline if r.digest), None)
        tracer = Tracer()
        with tracer.installed():
            traced = run_repeats(workload, seed,
                                 seconds * (1.0 - BASELINE_SHARE), 1,
                                 MAX_TRACED_REPEATS, tracer)
        # Tracing must not change what the simulator computes.
        verify(traced, expected)
        repeats = baseline + traced
        report_failures(repeats)
        metrics = per_layer(tracer, traced, baseline)
        path = OUT_DIR / f"{name}-seed{seed}.spans.csv.gz"
        tracer.write(str(path))
        print(f"spans: {len(tracer.start)} written to "
              f"{os.path.relpath(path, ROOT)}")
    failed = sum(1 for r in repeats if r.errors)
    print(f"error_rate: {failed / len(repeats):.6g} "
          f"({failed} failed / {len(repeats)} attempted repeats)")
    return {"correct": failed == 0, "attempted": len(repeats),
            "failed": failed, "metrics": metrics}


def report_failures(repeats: List[Repeat]) -> None:
    for index, repeat in enumerate(repeats):
        for error in repeat.errors:
            print(f"repeat {index} FAILED: {error}", file=sys.stderr)


def main(argv: Optional[List[str]] = None) -> int:
    bootstrap()
    from perfbench.workloads import WORKLOADS
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=28.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not 0 < args.seconds <= 60:
        parser.error("--seconds must be in (0, 60]")
    result = measure(args.workload, args.seed, args.seconds,
                     bool(args.trace))
    print(json.dumps(result), flush=True)
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
