"""Percentiles and summaries used by every workload."""

from __future__ import annotations

import math
from typing import Sequence

#: A reported percentile needs at least this many samples above it.
MIN_BEYOND = 10


class TooFewSamples(ValueError):
    """A percentile was asked of a sample too small to support it."""


def nearest_rank(values: Sequence[float], q: float) -> float:
    """The q-th percentile (0 < q <= 100) by the nearest-rank method."""
    if not values:
        raise TooFewSamples("percentile of an empty sample")
    ordered = sorted(values)
    rank = max(1, math.ceil(q / 100.0 * len(ordered)))
    return ordered[rank - 1]


def beyond(n: int, q: float) -> int:
    """Samples strictly above the nearest-rank q-th percentile position."""
    return n - max(1, math.ceil(q / 100.0 * n))


def min_samples(q: float, min_beyond: int = MIN_BEYOND) -> int:
    """The smallest sample whose q-th percentile has ``min_beyond`` above it."""
    n = 1
    while beyond(n, q) < min_beyond:
        n += 1
    return n


def tail_percentile(
    values: Sequence[float], q: float, min_beyond: int = MIN_BEYOND
) -> float:
    """:func:`nearest_rank`, refusing a sample with fewer than
    ``min_beyond`` values above the percentile."""
    if beyond(len(values), q) < min_beyond:
        raise TooFewSamples(
            f"p{q:g} of {len(values)} samples has {beyond(len(values), q)} "
            f"beyond it; need {min_beyond} ({min_samples(q, min_beyond)} samples)"
        )
    return nearest_rank(values, q)


def median(values: Sequence[float]) -> float:
    """The middle value (mean of the two middle values for even counts)."""
    if not values:
        raise TooFewSamples("median of an empty sample")
    ordered = sorted(values)
    mid = len(ordered) // 2
    if len(ordered) % 2:
        return ordered[mid]
    return 0.5 * (ordered[mid - 1] + ordered[mid])
