"""Summary statistics shared by the benchmark's workers and orchestrator."""

from __future__ import annotations

import math
import time

# candidate tail percentiles, highest first
TAIL_LADDER = (99.9, 99.5, 99.0, 98.0, 95.0, 90.0, 80.0, 75.0, 50.0)


def percentile(values, p: float) -> float:
    """Linear-interpolated percentile (p in [0, 100]) of a non-empty sample."""
    xs = sorted(values)
    if not xs:
        raise ValueError("percentile of an empty sample")
    pos = (len(xs) - 1) * p / 100.0
    lo = math.floor(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def median(values) -> float:
    return percentile(values, 50.0)


def tail_percentile(n: int, wanted: float) -> float:
    """`wanted` if at least ten of n samples lie beyond it, else the highest ladder step that has ten."""
    for p in TAIL_LADDER:
        if p <= wanted and n * (1.0 - p / 100.0) >= 10.0:
            return p
    return 50.0


def loglog_slope(points) -> float:
    """Least-squares slope of log(y) against log(x) over points with x, y > 0; 0.0 if under 3 points."""
    pts = [(math.log(x), math.log(y)) for x, y in points if x > 0 and y > 0]
    if len(pts) < 3:
        return 0.0
    mx = sum(p[0] for p in pts) / len(pts)
    my = sum(p[1] for p in pts) / len(pts)
    sxx = sum((p[0] - mx) ** 2 for p in pts)
    if sxx == 0.0:
        return 0.0
    return sum((p[0] - mx) * (p[1] - my) for p in pts) / sxx


def calibrate() -> float:
    """Seconds for a fixed pure-Python loop; tracks machine speed, never folded into other metrics."""
    t0 = time.perf_counter()
    acc = 0
    for i in range(1_500_000):
        acc = (acc + i * i) % 1_000_003
    return time.perf_counter() - t0
