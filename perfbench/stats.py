"""Order statistics used by every workload's report.

Timings are reported as a median plus the highest percentile that still
has at least :data:`MIN_TAIL_SAMPLES` samples beyond it, so a "p99" is
never read off a handful of points.
"""

from __future__ import annotations

import math
import statistics
from typing import Sequence

__all__ = [
    "MIN_TAIL_SAMPLES",
    "PERCENTILE_LADDER",
    "percentile",
    "median",
    "ratio",
    "reportable_percentile",
    "quartile_spread",
]

#: Samples that must lie beyond a reported percentile.
MIN_TAIL_SAMPLES = 10

#: Percentiles a tail may be reported at, highest first.
PERCENTILE_LADDER = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)


def percentile(values: Sequence[float], p: float) -> float:
    """Nearest-rank ``p``-th percentile (``0 < p <= 100``)."""
    if not values:
        raise ValueError("percentile of an empty sample")
    if not 0 < p <= 100:
        raise ValueError(f"percentile must be in (0, 100], got {p}")
    ordered = sorted(values)
    rank = max(1, math.ceil(p / 100.0 * len(ordered)))
    return ordered[rank - 1]


def median(values: Sequence[float]) -> float:
    """The 50th percentile by the same nearest-rank rule."""
    return percentile(values, 50.0)


def ratio(num: float, den: float) -> float:
    """``num / den``, or 0 when there is nothing to divide by."""
    return num / den if den else 0.0


def reportable_percentile(n: int) -> float | None:
    """Highest ladder percentile with >= ten of ``n`` samples beyond it.

    ``n * (1 - p/100)`` samples lie beyond the ``p``-th percentile; p99
    therefore needs at least 1000 samples.  ``None`` when even the
    median has fewer than ten samples beyond it.
    """
    for p in PERCENTILE_LADDER:
        # Round before comparing: 1000 * (1 - 0.99) is 9.999999999999998.
        if round(n * (1.0 - p / 100.0), 9) >= MIN_TAIL_SAMPLES:
            return p
    return None


def quartile_spread(values: Sequence[float]) -> float:
    """(Q3 - Q1) / median, the spread rule the benchmark is held to."""
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / q2 if q2 else math.inf
