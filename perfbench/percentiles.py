"""Latency summaries: nearest-rank percentiles and the tail rule."""

from __future__ import annotations

import math

TAIL_BEYOND = 10


def percentile(sorted_values: list[float], p: float) -> float:
    """Nearest-rank ``p``-th percentile of an ascending, non-empty list."""
    rank = max(1, math.ceil(p / 100.0 * len(sorted_values) - 1e-9))
    return sorted_values[rank - 1]


def tail_percentile(count: int) -> float | None:
    """Highest percentile, in steps of 0.1, with at least ``TAIL_BEYOND`` samples above its rank.

    Returns None when there are too few samples for any percentile to
    qualify.
    """
    for tenths in range(999, 0, -1):
        p = tenths / 10.0
        if count - math.ceil(p / 100.0 * count - 1e-9) >= TAIL_BEYOND:
            return p
    return None

