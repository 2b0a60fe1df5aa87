"""Order statistics for the benchmark, with the percentile guard.

A percentile is only reported when at least :data:`MIN_BEYOND` samples
lie beyond it.  With fewer, a "p99" of a short run is just one of its
largest samples, so the guard refuses rather than quietly reporting
the maximum under a percentile's name.
"""

from __future__ import annotations

import math
from typing import Sequence

#: samples that must lie beyond a reported percentile.
MIN_BEYOND = 10


class PercentileError(ValueError):
    """Too few samples to report the requested percentile."""


def samples_beyond(n: int, pct: int) -> int:
    """How many of ``n`` ranked samples lie above the ``pct``-th percentile.

    Integer arithmetic, so ``samples_beyond(1000, 99) == 10`` exactly.
    """
    if not 0 < pct < 100:
        raise ValueError(f"percentile must be in (0, 100), got {pct}")
    return n - (pct * n + 99) // 100


def min_samples(pct: int) -> int:
    """The smallest sample count that can report the ``pct``-th percentile."""
    n = 1
    while samples_beyond(n, pct) < MIN_BEYOND:
        n += 1
    return n


def percentile(values: Sequence[float], pct: int) -> float:
    """The ``pct``-th percentile, linearly interpolated between ranks.

    Raises :class:`PercentileError` unless at least :data:`MIN_BEYOND`
    samples lie beyond it.
    """
    n = len(values)
    beyond = samples_beyond(n, pct)
    if beyond < MIN_BEYOND:
        raise PercentileError(
            f"p{pct} of {n} samples has {beyond} beyond it; "
            f"need {MIN_BEYOND} (at least {min_samples(pct)} samples)"
        )
    ranked = sorted(values)
    position = (n - 1) * pct / 100
    low = math.floor(position)
    high = min(low + 1, n - 1)
    return ranked[low] + (ranked[high] - ranked[low]) * (position - low)


def median(values: Sequence[float]) -> float:
    """The middle value (mean of the middle two for an even count).

    Used for per-run summaries of a few repeats, where no tail
    percentile is claimed.
    """
    if not values:
        raise PercentileError("median of no samples")
    ranked = sorted(values)
    mid = len(ranked) // 2
    if len(ranked) % 2:
        return ranked[mid]
    return (ranked[mid - 1] + ranked[mid]) / 2
