"""Figure 6(a): BCH decode latency vs correctable errors.

Also times the *functional* software decoder on a real corrupted page.
The paper's software decoder took 0.1-1 s per page, which is why it
needed the hardware accelerator.  This library's pure-Python codec uses
table-driven kernels and a trace-algorithm root finder, about 1-2 ms per
2KB page on a 2-vCPU VM; the accelerator model above is unchanged.
"""

from __future__ import annotations

import random

from repro.ecc.bch import design_code_for_page
from repro.experiments.fig6_ecc import run_decode_latency_series


def test_fig6a_accelerator_latency(benchmark):
    series = benchmark(run_decode_latency_series)

    print("\nFigure 6(a): accelerator decode latency (us)")
    for point in series:
        print(f"  t={point.t:2d}: syndrome={point.syndrome_us:6.1f} "
              f"chien={point.chien_us:6.1f} total={point.total_us:6.1f}")

    totals = [p.total_us for p in series]
    # Shape: near-linear growth, Chien-dominated, inside the paper's
    # 58-400us envelope.
    assert totals == sorted(totals)
    assert all(40.0 <= total <= 400.0 for total in totals)
    assert series[-1].chien_us > series[-1].syndrome_us


def test_fig6a_functional_decode_cost(benchmark):
    """Time one real 2KB-page decode with injected errors through the
    software codec this library ships (a functional check, not the
    accelerator the latency model describes)."""
    code = design_code_for_page(2048, t=4)
    rng = random.Random(3)
    payload = bytes(rng.randrange(256) for _ in range(2048))
    _, parity = code.encode(payload)
    corrupted = bytearray(payload)
    for index in rng.sample(range(2048), 4):
        corrupted[index] ^= 1 << rng.randrange(8)
    corrupted = bytes(corrupted)

    decoded, corrected = benchmark(code.decode, corrupted, parity)
    assert decoded == payload
    assert corrected == 4
