"""Seeded QPoly multiplication probes, checked before they are timed.

Operands of degree 10, 100 and 1000 are drawn from the workload seed.
Each carries zero low-order coefficients, zero runs, trailing zeros that
the constructor must trim, negative values and coefficients wider than
64 bits.  Every product is compared with the plain convolution below,
which shares no code with QPoly, before it is timed; a wrong kernel is
then a failure, never a speed-up.
"""

from __future__ import annotations

import random
import statistics
import time

DEGREES = (10, 100, 1000)
BUDGET_S = 0.6  # timing budget per probe


def operands(seed: int, degree: int) -> tuple[list[int], list[int]]:
    rng = random.Random(seed * 7919 + degree)

    def one() -> list[int]:
        cs = []
        for _ in range(degree + 1):
            kind = rng.random()
            if kind < 0.25:
                cs.append(0)
            elif kind < 0.6:
                cs.append(rng.randint(-9, 9))
            elif kind < 0.85:
                cs.append(rng.randint(-(2**63), 2**63))
            else:
                cs.append(rng.choice((-1, 1)) * rng.getrandbits(rng.randint(65, 160)))
        pad = rng.randint(1, max(1, degree // 10))
        cs[:pad] = [0] * pad
        cs[-1] = -((1 << 64) + rng.getrandbits(64))  # negative, > 64 bits, keeps the degree
        return cs + [0] * rng.randint(1, 3)

    return one(), one()


def convolve(a: list[int], b: list[int]) -> list[int]:
    """Schoolbook product with trailing zeros trimmed."""
    out = [0] * max(len(a) + len(b) - 1, 0)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    while out and out[-1] == 0:
        out.pop()
    return out


def product_ok(mul, QPoly, a: list[int], b: list[int]) -> bool:
    return list(mul(QPoly(a), QPoly(b)).coeffs) == convolve(a, b)


def _time_per_call_us(fn, budget_s: float) -> float:
    """Median over batches of the per-call time, in microseconds."""
    n = 1
    while True:
        t0 = time.perf_counter()
        for _ in range(n):
            fn()
        dt = time.perf_counter() - t0
        if dt >= budget_s / 10 or n >= 1 << 20:
            break
        n *= 2
    samples = [dt / n]
    deadline = time.perf_counter() + budget_s
    while len(samples) < 3 or (time.perf_counter() < deadline and len(samples) < 15):
        t0 = time.perf_counter()
        for _ in range(n):
            fn()
        samples.append((time.perf_counter() - t0) / n)
    return statistics.median(samples) * 1e6


def run_probes(QPoly, seed: int) -> tuple[dict[str, float], bool]:
    """Probe metrics by name, and whether every product was correct."""
    metrics = {}
    ok = True
    for d in DEGREES:
        a, b = operands(seed, d)
        if not product_ok(lambda x, y: x * y, QPoly, a, b):
            ok = False
            metrics[f"polys.probe.mul_d{d}_us"] = 0.0
            continue
        pa, pb = QPoly(a), QPoly(b)
        metrics[f"polys.probe.mul_d{d}_us"] = _time_per_call_us(lambda: pa * pb, BUDGET_S)
    return metrics, ok
