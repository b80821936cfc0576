"""Exact order-statistic percentiles from raw samples.

No histogram, no interpolation: the p-th percentile of ``n`` samples is
the sample at nearest rank ``ceil(p/100 * n)``.  A percentile is only
*supported* when at least ten samples lie beyond it, so p99 needs 1,000
samples; :func:`tail` falls back to the highest supported level.
"""

from __future__ import annotations

import math
from typing import Optional, Sequence, Tuple

#: Samples that must lie beyond a reported percentile.
TAIL_SAMPLES = 10


def percentile(values: Sequence[float], p: float) -> float:
    """Nearest-rank ``p``-th percentile of ``values`` (non-empty)."""
    ordered = sorted(values)
    rank = max(1, math.ceil(p / 100.0 * len(ordered) - 1e-9))
    return ordered[rank - 1]


def median(values: Sequence[float]) -> float:
    """The p50 of ``values`` (lower median for even counts)."""
    return percentile(values, 50.0)


def supported(n: int, wanted: float) -> Optional[float]:
    """``wanted`` if ``n`` samples support it, else the highest level
    leaving :data:`TAIL_SAMPLES` samples beyond it (one decimal), or None
    when ``n`` is too small for any tail."""
    if n * (1.0 - wanted / 100.0) >= TAIL_SAMPLES - 1e-9:
        return wanted
    if n <= TAIL_SAMPLES:
        return None
    return math.floor(1000.0 * (1.0 - TAIL_SAMPLES / n)) / 10.0


def tail(values: Sequence[float], wanted: float) -> Tuple[Optional[float], Optional[float]]:
    """``(level, value)``: the ``wanted`` percentile, or the highest one the
    sample count supports; ``(None, None)`` when nothing is supported."""
    level = supported(len(values), wanted)
    if level is None:
        return None, None
    return level, percentile(values, level)
