"""Order statistics used by the benchmark."""

from __future__ import annotations

import statistics


def median(values) -> float:
    return statistics.median(values)


def percentile(values, q: float) -> float:
    """q-th percentile (0 <= q <= 100), linear between the two
    nearest ranks, as numpy's default method."""
    xs = sorted(values)
    if not xs:
        raise ValueError("percentile of no values")
    pos = (len(xs) - 1) * q / 100.0
    lo = int(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)

