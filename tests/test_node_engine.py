"""The node engine behind ``run_trace_concurrent`` and ``run_shard``.

* pinned digests: sha256 of small runs in both modes, so a refactor of
  the shared engine shows any change in a simulated output;
* throughput: a closed-window run divides only its own requests by its
  own span;
* shard accounting identities on generated arrival plans.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
from typing import Any, List, Optional

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.cluster.shard import run_shard
from repro.core.hierarchy import build_flash_system
from repro.reliability import ReliabilityConfig, ScrubConfig
from repro.sim.concurrent import run_trace_concurrent
from repro.telemetry import LatencyHistogram, Telemetry
from repro.telemetry import metrics as telemetry_metrics
from repro.telemetry.export import telemetry_to_dict
from repro.telemetry.timeseries import TimeSeries
from repro.workloads.macro import build_workload


def _canonical(value: Any) -> Any:
    """Plain JSON data with every float spelled by ``repr``."""
    if isinstance(value, float):
        return repr(value)
    if value is None or isinstance(value, (bool, int, str)):
        return value
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        return {f.name: _canonical(getattr(value, f.name))
                for f in dataclasses.fields(value)}
    if isinstance(value, LatencyHistogram):
        return _canonical(value.__getstate__())
    if isinstance(value, TimeSeries):
        return _canonical(value.as_dict())
    if isinstance(value, Telemetry):
        return _canonical(telemetry_to_dict(value))
    if isinstance(value, dict):
        return [[_canonical(k), _canonical(v)] for k, v in value.items()]
    if isinstance(value, (list, tuple)):
        return [_canonical(item) for item in value]
    raise TypeError(f"no canonical form for {type(value).__name__}")


def _digest(value: Any) -> str:
    text = json.dumps(_canonical(value), sort_keys=True)
    return hashlib.sha256(text.encode()).hexdigest()


@pytest.fixture
def pure_python_histograms(monkeypatch):
    """Fold histogram samples without numpy, whose pairwise summation
    would make ``total`` (and so the digest) depend on whether numpy is
    installed."""
    monkeypatch.setattr(telemetry_metrics, "_np", None)


# (workload, records, footprint pages, DRAM KB, flash MB, qd, channels,
# planes, telemetry, scrub) -> sha256 of the report, recorded before the
# two event engines were merged into one.
CONCURRENT_PINS = [
    pytest.param(
        "financial1", 6000, 65536, 1024, 8, 8, 2, 2, False, False,
        "71b755367ecc854cd144d0d8d50afc1d47ca28a7c0549a5e9aa79b4d7cef1514",
        id="financial1-qd8-2x2"),
    pytest.param(
        "dbt2", 6000, 65536, 256, 16, 16, 4, 1, True, False,
        "e9fc8b1a81ba04be7a6369c035abd498b67bc23da0ba8070cc862bdbab045732",
        id="dbt2-qd16-4x1-telemetry"),
    pytest.param(
        "dbt2", 2500, 8192, 1024, 4, 4, 1, 2, False, True,
        "226983efb08d7773b728439a90ff9e5785093f0c246c6d304a8c7e6bc280be2c",
        id="dbt2-qd4-1x2-scrub"),
]


@pytest.mark.usefixtures("pure_python_histograms")
@pytest.mark.parametrize("workload,records,footprint,dram_kb,flash_mb,qd,"
                         "channels,planes,with_telemetry,scrub,expected",
                         CONCURRENT_PINS)
def test_concurrent_report_digest(workload, records, footprint, dram_kb,
                                  flash_mb, qd, channels, planes,
                                  with_telemetry, scrub, expected):
    extra = {}
    if scrub:
        extra = dict(
            reliability_config=ReliabilityConfig.uniform(1e-5, seed=3),
            scrub_config=ScrubConfig(interval_us=2000.0,
                                     min_age_us=2000.0))
    system = build_flash_system(dram_bytes=dram_kb << 10,
                                flash_bytes=flash_mb << 20, **extra)
    telemetry = Telemetry(sample_interval=250) if with_telemetry else None
    trace = build_workload(workload, num_records=records,
                           footprint_pages=footprint, seed=11)
    report = run_trace_concurrent(system, trace, queue_depth=qd,
                                  channels=channels, planes=planes,
                                  telemetry=telemetry)
    queueing = report.queueing
    assert queueing is not None and queueing.channel_stalls > 0
    if scrub:
        assert queueing.scrub_events > 0
    else:
        assert queueing.gc_events > 0
    assert _digest([report, telemetry]) == expected


def _shard_plan():
    """A burst that overflows the window and the host queue, then a
    steady tail that runs past a kill at 150 ms."""
    arrivals = []
    seq = 0
    for index in range(60):
        arrivals.append((float(index), seq, (index * 37) % 900,
                         index % 3 != 0))
        seq += 1
    for index in range(240):
        arrivals.append((500.0 + 1000.0 * index, seq,
                         (index * 53) % 1200, index % 4 != 0))
        seq += 1
    sync = [(2000.0 + 2000.0 * index, 10_000 + index, 2000 + index,
             index % 2 == 0) for index in range(120)]
    return arrivals, sync


@pytest.mark.usefixtures("pure_python_histograms")
def test_shard_outcome_digest():
    arrivals, sync = _shard_plan()
    outcome = run_shard(
        shard_id=2, arrivals=arrivals, dram_bytes=1 << 20,
        flash_bytes=4 << 20, queue_depth=4, channels=2, planes=1,
        shed_queue=6, fail_at_us=150_000.0, retire_on_degraded=False,
        fault_rate=0.0, reliability_rate=0.0, bucket_us=5_000.0,
        sample_interval=50, seed=9, sync_arrivals=sync,
        rejoin_at_us=1_500.0, incarnation=1)
    assert outcome["shed"] > 0
    assert outcome["lost_reads"] > 0 and outcome["inflight_reads"]
    assert outcome["redirected"] > 0
    assert outcome["sync_completed"] > 0 and outcome["sync_skipped"] > 0
    assert outcome["queue_delay"].max > 0
    assert _digest(outcome) == (
        "aca7a5cf1e0ca2acb05c956898abb97f2f351e8cbba67726253dc10c95ccdef5")


def test_throughput_counts_only_this_runs_requests():
    """A second run on a warm system divides the requests *it* admitted
    by *its* span, while ``requests`` stays cumulative as in the serial
    engine."""
    system = build_flash_system(dram_bytes=2 << 20, flash_bytes=8 << 20)
    reports = [
        run_trace_concurrent(
            system, build_workload("specweb99", num_records=2000,
                                   footprint_pages=8192, seed=seed),
            queue_depth=8, channels=2, planes=2)
        for seed in (1, 2)]
    first, second = reports
    ran = second.requests - first.requests
    assert ran > 0 and second.requests == system.stats.requests
    assert second.queueing is not None
    span_s = second.queueing.span_us * 1e-6
    assert second.throughput_rps == pytest.approx(ran / span_s)
    assert first.throughput_rps == pytest.approx(
        first.requests / (first.queueing.span_us * 1e-6))


def _arrival_plan(draw, times, first_seq):
    pages = draw(st.lists(st.integers(0, 4000), min_size=len(times),
                          max_size=len(times)))
    reads = draw(st.lists(st.booleans(), min_size=len(times),
                          max_size=len(times)))
    return [(time_us, first_seq + index, page, is_read)
            for index, (time_us, page, is_read)
            in enumerate(zip(sorted(times), pages, reads))]


@st.composite
def _shard_cases(draw):
    instants = st.floats(0.0, 40_000.0, allow_nan=False)
    arrivals = _arrival_plan(draw, draw(st.lists(instants, max_size=30)),
                             0)
    sync: List[tuple] = []
    rejoin_at_us: Optional[float] = None
    if draw(st.booleans()):
        sync = _arrival_plan(draw, draw(st.lists(instants, max_size=12)),
                             10_000)
        rejoin_at_us = draw(st.none() | instants)
    return dict(
        arrivals=arrivals, sync_arrivals=sync, rejoin_at_us=rejoin_at_us,
        queue_depth=draw(st.integers(1, 4)),
        shed_queue=draw(st.integers(1, 4)),
        fail_at_us=draw(st.none() | instants))


def _run_case(case, **overrides):
    kwargs = dict(case, shard_id=1, dram_bytes=1 << 20,
                  flash_bytes=4 << 20, channels=2, planes=1,
                  retire_on_degraded=False, fault_rate=0.0,
                  reliability_rate=0.0, bucket_us=10_000.0,
                  sample_interval=16, seed=5)
    kwargs.update(overrides)
    return run_shard(**kwargs)


def _assert_identities(outcome):
    assert outcome["arrivals"] == (outcome["completed"] + outcome["shed"]
                                   + outcome["lost"]
                                   + outcome["redirected"])
    assert outcome["sync_arrived"] == (outcome["sync_completed"]
                                       + outcome["sync_lost"]
                                       + outcome["sync_skipped"])


@settings(max_examples=150, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(case=_shard_cases())
def test_shard_identities_on_generated_plans(case):
    outcome = _run_case(case)
    _assert_identities(outcome)
    assert outcome["arrivals"] == len(case["arrivals"])
    assert outcome["sync_arrived"] == len(case["sync_arrivals"])
    assert _digest(_run_case(case)) == _digest(outcome)
    # No kill and a host queue that can hold the whole plan: nothing is
    # shed, lost or redirected.
    roomy = _run_case(case, fail_at_us=None, shed_queue=(
        len(case["arrivals"]) + len(case["sync_arrivals"]) + 1))
    _assert_identities(roomy)
    assert roomy["completed"] == roomy["arrivals"] == len(case["arrivals"])
    assert roomy["sync_completed"] == len(case["sync_arrivals"])
