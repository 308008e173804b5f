"""Summary statistics shared by every workload.

The percentile rule: a timing is reported as its median plus the
highest percentile that still has at least ``MIN_BEYOND`` samples
beyond it, so a "p99" is only called that when the run produced at
least 1000 samples; smaller samples report the highest percentile they
support, together with the sample count.
"""

from __future__ import annotations

import math
from typing import List, NamedTuple, Sequence

#: Samples that must lie beyond a reported tail percentile.
MIN_BEYOND = 10

#: Tail percentiles tried, highest first.
TAIL_LADDER = (99.9, 99.5, 99.0, 98.0, 95.0, 90.0, 75.0, 50.0)


class Tail(NamedTuple):
    """A tail percentile: which one, its value, and the sample count."""

    q: float
    value: float
    n: int


def quantile(sorted_values: Sequence[float], q: float) -> float:
    """Nearest-rank ``q``-th percentile of an ascending sequence."""
    if not sorted_values:
        raise ValueError("quantile of an empty sample")
    rank = math.ceil(q * len(sorted_values) / 100.0 - 1e-9)
    return sorted_values[min(len(sorted_values), max(1, rank)) - 1]


def median(values: Sequence[float]) -> float:
    """The median (0.0 for an empty sample)."""
    if not values:
        return 0.0
    ordered = sorted(values)
    mid = len(ordered) // 2
    if len(ordered) % 2:
        return ordered[mid]
    return (ordered[mid - 1] + ordered[mid]) / 2.0


def supported_percentile(n: int, want: float = 99.0) -> float:
    """The highest ladder percentile <= ``want`` leaving at least
    :data:`MIN_BEYOND` of ``n`` samples beyond it (0.0 if none does)."""
    for q in TAIL_LADDER:
        if q <= want and n * (100.0 - q) / 100.0 >= MIN_BEYOND - 1e-9:
            return q
    return 0.0


def tail(values: Sequence[float], want: float = 99.0) -> Tail:
    """The percentile rule applied to ``values`` (see module doc).

    With too few samples for even the median rule, the maximum is
    reported with ``q = 100``.
    """
    ordered = sorted(values)
    n = len(ordered)
    if n == 0:
        return Tail(0.0, 0.0, 0)
    q = supported_percentile(n, want)
    if q == 0.0:
        return Tail(100.0, ordered[-1], n)
    return Tail(q, quantile(ordered, q), n)


def union_length(intervals: List[tuple]) -> float:
    """Total length covered by possibly overlapping ``(start, end)``
    intervals."""
    total = 0.0
    cur_start = cur_end = None
    for start, end in sorted(intervals):
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        elif end > cur_end:
            cur_end = end
    if cur_end is not None:
        total += cur_end - cur_start
    return total
