"""Self-tests of the benchmark harness.  Run from the repository root::

    python3 -m pytest perfbench/tests -q
"""

import json
import shutil
import subprocess
import sys
from array import array

import pytest

from perfbench import run, tracing
from perfbench.workloads import WORKLOADS, Outcome, Replay

BENCHMARK = json.loads((run.ROOT / "BENCHMARK.json").read_text())


def tiny_replay(queue_depth=1):
    """A seconds-long stand-in for the replay workloads."""
    return Replay("tiny", "websearch1", dram_mb=1, flash_mb=4, warmup=2000,
                  timed=2000, queue_depth=queue_depth,
                  channels=2 if queue_depth > 1 else 1,
                  footprint_pages=4096)


def test_self_time_of_a_nested_span_tree():
    # root [0,10] > a [1,4] > a1 [2,3];  root > b [5,9];
    # c [6,8] and d [7,9.5] overlap inside b, and d runs past b's end.
    parent = array("i", [-1, 0, 1, 0, 3, 3])
    start = array("d", [0, 1, 2, 5, 6, 7])
    end = array("d", [10, 4, 3, 9, 8, 9.5])
    assert tracing.self_times(parent, start, end) == pytest.approx(
        [10 - 3 - 4, 3 - 1, 1, 4 - 3, 2, 2.5])


def _bindings():
    """Every place a traced entry point is reachable from, with its value."""
    found = {}
    for entries in tracing.LAYERS.values():
        for entry in entries:
            owner, attr, fn = tracing._resolve(entry)
            found[(id(owner), attr)] = fn
            for module in list(sys.modules.values()):
                if getattr(module, "__name__", "").startswith("repro"):
                    for key, value in vars(module).items():
                        if value is fn:
                            found[(id(module), key)] = fn
    return found


def test_tracing_restores_the_originals():
    before = _bindings()
    tracer = tracing.Tracer()
    with pytest.raises(ZeroDivisionError):
        with tracer.installed():
            from repro.sim import concurrent
            assert hasattr(concurrent.run_trace, "__wrapped__")
            run.run_repeat(tiny_replay(), seed=3, tracer=tracer)
            1 / 0
    assert len(tracer.start) > 0
    assert _bindings() == before
    from repro.core.cache import FlashDiskCache
    assert not hasattr(FlashDiskCache.read, "__wrapped__")


def test_traced_run_matches_untraced_and_reports_every_layer(tmp_path,
                                                             monkeypatch):
    monkeypatch.setitem(WORKLOADS, "tiny", tiny_replay(queue_depth=4))
    monkeypatch.setattr(run, "OUT_DIR", tmp_path)
    result = run.measure("tiny", seed=3, seconds=0.01, trace=True)
    assert result["correct"] and result["failed"] == 0
    names = {metric["name"] for metric in BENCHMARK["per_layer"]}
    assert set(result["metrics"]) == names
    metrics = result["metrics"]
    assert metrics["events.calls"]["value"] > 0
    assert metrics["events.per_op"]["value"] > 0
    assert metrics["ecc.decode_bits.calls"]["value"] == 0
    assert list(tmp_path.glob("tiny-seed3.spans.csv.gz"))


def test_untraced_run_reports_every_end_to_end_metric(monkeypatch):
    monkeypatch.setitem(WORKLOADS, "tiny", tiny_replay())
    result = run.measure("tiny", seed=3, seconds=0.01, trace=False)
    assert result["correct"] and result["attempted"] == run.MIN_REPEATS
    names = {metric["name"] for metric in BENCHMARK["end_to_end"]}
    assert set(result["metrics"]) == names
    assert all(metric["value"] > 0 for metric in result["metrics"].values())


def test_seed_changes_inputs_and_digest():
    for workload in WORKLOADS.values():
        assert workload.inputs(1) != workload.inputs(2), workload.name
    tiny = tiny_replay()
    first, again, other = (run.run_repeat(tiny, seed)
                           for seed in (1, 1, 2))
    assert not (first.errors or again.errors or other.errors)
    assert first.digest == again.digest
    assert first.digest != other.digest


class _Flaky:
    """Its second repeat computes different statistics, very fast."""

    name = "flaky"

    def __init__(self):
        self.calls = 0

    def setup(self, seed):
        return seed

    def run(self, state):
        self.calls += 1
        odd = self.calls == 2
        return Outcome(ops=10 ** 12 if odd else 1, stats={"odd": odd})


def test_digest_mismatch_is_a_failure_not_a_metric(monkeypatch):
    monkeypatch.setitem(WORKLOADS, "flaky", _Flaky())
    result = run.measure("flaky", seed=5, seconds=0.0001, trace=False)
    assert result["correct"] is False
    assert (result["attempted"], result["failed"]) == (3, 1)
    # The failed repeat's absurd op count never reaches the median.
    assert result["metrics"]["ops_per_s"]["value"] < 10 ** 9


def test_reference_mismatch_fails_every_repeat(monkeypatch):
    monkeypatch.setitem(WORKLOADS, "tiny", tiny_replay())
    monkeypatch.setattr(run, "reference_digest", lambda name, seed: "0" * 64)
    result = run.measure("tiny", seed=run.DEFAULT_SEED, seconds=0.01,
                         trace=False)
    assert result["correct"] is False
    assert result["failed"] == result["attempted"]
    assert result["metrics"] == {}


def test_fails_without_the_simulator_sources(tmp_path):
    shutil.copytree(run.ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", "tests"))
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "bch_codec",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert "correct" not in proc.stdout
