"""Metric arithmetic for the benchmark: percentiles, quartile spread, the
power-law exponent fit and span self time.  Pure functions, no dx imports."""

from __future__ import annotations

import math
import statistics
from typing import Dict, List, Optional, Sequence, Tuple


def percentile(values: Sequence[float], p: float) -> float:
    """The p-th percentile (0 < p < 100) by linear interpolation between the
    closest ranks, as numpy's default and ``statistics.quantiles(method=
    "inclusive")`` compute it."""
    if not values:
        raise ValueError("percentile of no values")
    if not 0 < p < 100:
        raise ValueError("p must lie strictly between 0 and 100")
    ordered = sorted(values)
    pos = (len(ordered) - 1) * p / 100.0
    lo = math.floor(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def quartile_spread(values: Sequence[float]) -> float:
    """Distance between the first and third quartile as a share of the
    median, with quartiles as ``statistics.quantiles(values, n=4)`` gives
    them."""
    q1, med, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / med


def fit_exponent(sizes: Sequence[float], times: Sequence[float]) -> float:
    """Least-squares slope of log(time) against log(size): the k of a
    time ~ c * size**k fit."""
    if len(sizes) != len(times) or len(sizes) < 2:
        raise ValueError("need at least two (size, time) points")
    xs = [math.log(s) for s in sizes]
    ys = [math.log(t) for t in times]
    mx = sum(xs) / len(xs)
    my = sum(ys) / len(ys)
    sxx = sum((x - mx) ** 2 for x in xs)
    if sxx == 0:
        raise ValueError("sizes must not all be equal")
    return sum((x - mx) * (y - my) for x, y in zip(xs, ys)) / sxx


# A span is (name, start, end, parent) with parent the index of the enclosing
# span in the same list, or None at top level.
Span = Tuple[str, float, float, Optional[int]]


def self_times(spans: Sequence[Span]) -> Dict[str, float]:
    """Total self time per span name: each span's duration minus the
    durations of its direct children."""
    child_time: List[float] = [0.0] * len(spans)
    for name, start, end, parent in spans:
        if parent is not None:
            child_time[parent] += end - start
    out: Dict[str, float] = {}
    for i, (name, start, end, _) in enumerate(spans):
        out[name] = out.get(name, 0.0) + (end - start) - child_time[i]
    return out
