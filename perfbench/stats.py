"""Sample statistics shared by the benchmark.

Two rules live here so ``run.py``, the report and the self-tests agree
on them:

* a timing is reported as its median and as the highest whole
  percentile (at most p99) that leaves at least ``MIN_BEYOND`` samples
  beyond it, together with the sample count;
* run-to-run spread is the interquartile range over the median, with
  quartiles as ``statistics.quantiles(values, n=4)`` gives them.
"""

from __future__ import annotations

import math
import statistics

#: Samples that must lie beyond a reported tail percentile.
MIN_BEYOND = 10


def percentile(values, q: float) -> float:
    """Linear-interpolated ``q``-th percentile (``q`` in 0..100)."""
    ordered = sorted(values)
    if not ordered:
        raise ValueError("percentile of no samples")
    pos = (len(ordered) - 1) * q / 100.0
    lo = int(pos)
    if lo + 1 >= len(ordered):
        return float(ordered[-1])
    frac = pos - lo
    return ordered[lo] * (1.0 - frac) + ordered[lo + 1] * frac


def tail_percentile(n: int, min_beyond: int = MIN_BEYOND) -> int | None:
    """The highest whole percentile q <= 99 with at least
    ``min_beyond`` of ``n`` samples beyond it, or ``None`` when even the
    median has fewer (fewer than ``2 * min_beyond`` samples)."""
    for q in range(99, 49, -1):
        if n - math.ceil(q * n / 100) >= min_beyond:
            return q
    return None


def tail(values) -> tuple[float, int]:
    """``(value, q)`` of the tail percentile; falls back to the median
    (q = 50) when there are too few samples for the rule."""
    q = tail_percentile(len(values)) or 50
    return percentile(values, q), q


def quartiles(values) -> tuple[float, float, float]:
    """``(q1, median, q3)``; a single sample is its own quartiles."""
    values = list(values)
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def spread(values) -> float:
    """Interquartile range as a share of the median."""
    q1, q2, q3 = quartiles(values)
    return (q3 - q1) / q2 if q2 else float("inf")


def describe(values) -> dict:
    """Raw samples plus the summary the records store for a metric."""
    values = [float(v) for v in values]
    q1, q2, q3 = quartiles(values)
    out = {"n": len(values), "median": q2, "q1": q1, "q3": q3,
           "samples": values}
    if len(values) > 1:
        out["tail"], out["tail_q"] = tail(values)
    return out
