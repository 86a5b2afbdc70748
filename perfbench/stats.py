"""Statistics that survive outliers: medians, quartiles, and a tail
percentile chosen so that at least ten samples lie beyond it."""

from __future__ import annotations

import math
import statistics

#: Candidate tail percentiles, highest first.
TAIL_LADDER = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)

#: Samples that must lie beyond a reported tail percentile.
BEYOND = 10


def median(values) -> float:
    values = list(values)
    return float(statistics.median(values)) if values else 0.0


def quartiles(values) -> tuple:
    """``(q1, median, q3)``; all three equal for fewer than two values."""
    values = list(values)
    if not values:
        return (0.0, 0.0, 0.0)
    if len(values) < 2:
        return (float(values[0]),) * 3
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return (float(q1), float(q2), float(q3))


def percentile(values, pct: float) -> float:
    """Nearest-rank percentile of ``values``."""
    ordered = sorted(values)
    if not ordered:
        return 0.0
    rank = max(1, math.ceil(pct / 100.0 * len(ordered)))
    return float(ordered[rank - 1])


def tail(values) -> tuple:
    """``(pct, value, n)``: the highest ladder percentile with at least
    :data:`BEYOND` samples beyond its nearest rank.

    With fewer than ``2 * BEYOND`` samples no percentile qualifies and
    the median is reported as the tail (``pct`` 50), so the sample count
    shows how little the tail says.
    """
    values = list(values)
    n = len(values)
    for pct in TAIL_LADDER:
        rank = max(1, math.ceil(pct / 100.0 * n))
        if n - rank >= BEYOND:
            return pct, percentile(values, pct), n
    return 50.0, percentile(values, 50.0), n
