"""Order statistics the harness reports (no numpy: stdlib only)."""

from __future__ import annotations

import math
from typing import Optional, Sequence

#: a percentile is only reported when at least this many samples lie beyond it
MIN_SAMPLES_BEYOND = 10


def percentile(values: Sequence[float], fraction: float) -> float:
    """The ``fraction`` quantile (0..1) with linear interpolation."""
    if not values:
        raise ValueError("percentile of an empty sample")
    ordered = sorted(values)
    position = fraction * (len(ordered) - 1)
    low = math.floor(position)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (position - low)


def median(values: Sequence[float]) -> float:
    """The 0.5 quantile."""
    return percentile(values, 0.5)


def geomean(values: Sequence[float]) -> float:
    """Geometric mean of positive values."""
    if not values:
        raise ValueError("geomean of an empty sample")
    return math.exp(sum(math.log(value) for value in values) / len(values))


def highest_supported_percentile(
    count: int, beyond: int = MIN_SAMPLES_BEYOND
) -> Optional[float]:
    """The highest quantile (0..1) with at least ``beyond`` samples above it.

    ``None`` when the sample cannot even support its median that way.  The
    quantile is rounded *down* to a tenth of a percent so that rounding never
    claims a tail the sample does not have.
    """
    if count < 2 * beyond:
        return None
    return math.floor((1.0 - beyond / count) * 1000) / 1000
