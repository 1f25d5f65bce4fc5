"""Summary arithmetic of the benchmark: percentiles and medians.

Every timing is reported as a median plus the highest percentile that
still has at least :data:`TAIL_MIN_BEYOND` samples beyond it, with its
sample count. Percentiles use the nearest-rank rule, so ``p`` of ``n``
sorted samples is the value at rank ``ceil(p / 100 * n)`` and exactly
``n - rank`` samples lie beyond it.
"""

from __future__ import annotations

import statistics

#: Samples that must lie beyond a reported tail percentile.
TAIL_MIN_BEYOND = 10

#: The percentiles a tail may be reported at, lowest first.
TAIL_PERCENTILES = (90.0, 95.0, 99.0, 99.9)


def percentile(values, p: float) -> float:
    """Nearest-rank ``p``-th percentile (0 < p <= 100) of ``values``."""
    if not values:
        raise ValueError("percentile of no samples")
    if not 0 < p <= 100:
        raise ValueError(f"percentile {p} outside (0, 100]")
    ordered = sorted(values)
    return ordered[_rank(len(ordered), p) - 1]


def beyond(n: int, p: float) -> int:
    """Samples of ``n`` that lie beyond the nearest-rank ``p``-th percentile."""
    return n - _rank(n, p)


def _rank(n: int, p: float) -> int:
    """1-based nearest rank, ``ceil(p / 100 * n)``, in integer arithmetic
    (tenths of a percent) so that 95 % of 200 is exactly rank 190."""
    return max(-(-round(p * 10) * n // 1000), 1)


def tail_percentile(n: int) -> float | None:
    """The highest of :data:`TAIL_PERCENTILES` with at least
    :data:`TAIL_MIN_BEYOND` of ``n`` samples beyond it, or ``None``."""
    fitting = [p for p in TAIL_PERCENTILES if beyond(n, p) >= TAIL_MIN_BEYOND]
    return fitting[-1] if fitting else None


def p95_allowed(n: int) -> bool:
    """Whether ``n`` samples support a p95 (>= 10 beyond it: n >= 200)."""
    return beyond(n, 95.0) >= TAIL_MIN_BEYOND


def median(values) -> float:
    if not values:
        raise ValueError("median of no samples")
    return statistics.median(values)


def p50_or_zero(values) -> float:
    """Median of ``values``, or 0.0 for a layer that did no work."""
    return statistics.median(values) if values else 0.0


def ratio(num: float, den: float) -> float:
    """``num / den``, or 0.0 when the base is empty."""
    return num / den if den else 0.0
