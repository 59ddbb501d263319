"""Summary statistics that carry their sample counts."""
from __future__ import annotations

import statistics
from typing import NamedTuple, Sequence


class Sampled(NamedTuple):
    value: float
    samples: int


def median_of(values: Sequence[float]) -> Sampled:
    if not values:
        raise ValueError("median of no samples")
    return Sampled(statistics.median(values), len(values))


def max_of(values: Sequence[float]) -> Sampled:
    if not values:
        raise ValueError("maximum of no samples")
    return Sampled(max(values), len(values))


def quartile_spread(values: Sequence[float]) -> float:
    """Distance between the first and third quartile, as a share of the median."""
    q1, median, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / median
