"""Order statistics with the benchmark's reporting rules."""

from __future__ import annotations

import statistics
from typing import Sequence

# A percentile is reported only when at least this many samples lie
# beyond it; below that, one outlier decides the number.
MIN_TAIL_SAMPLES = 10


def quantile(samples: Sequence[float], q: float) -> float:
    """Linear-interpolation quantile (NumPy's default method)."""
    if not samples:
        raise ValueError("quantile of an empty sample")
    xs = sorted(samples)
    pos = q * (len(xs) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def percentile(samples: Sequence[float], q: float) -> float | None:
    """The ``q`` quantile, or None when fewer than ten samples lie beyond it."""
    if len(samples) * (1.0 - q) < MIN_TAIL_SAMPLES:
        return None
    return quantile(samples, q)


def quartiles(samples: Sequence[float]) -> tuple[float, float, float]:
    """``(q1, median, q3)`` as ``statistics.quantiles(n=4)`` gives them."""
    if len(samples) == 1:
        x = float(samples[0])
        return x, x, x
    q1, q2, q3 = statistics.quantiles(samples, n=4)
    return float(q1), float(q2), float(q3)
