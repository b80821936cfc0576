"""Shared wall-clock latency summarisation for the ``BENCH_*`` emitters.

Per-call p50/p99 are exact order statistics of the raw samples, by the
nearest-rank rule ``perfbench/stats.py`` uses: the p-th percentile of
``n`` samples is the sample at rank ``ceil(p/100 * n)``.  No histogram
stands between the samples and the reported value, so a 10% change in
latency shows as one.
"""

from __future__ import annotations

import math
import time
from typing import Callable, Dict, Iterable, Sequence


def _nearest_rank(ordered: Sequence[float], p: float) -> float:
    """The ``p``-th percentile of the ascending, non-empty ``ordered``."""
    rank = max(1, math.ceil(p / 100.0 * len(ordered) - 1e-9))
    return ordered[rank - 1]


def summarize_latencies(
    seconds: Iterable[float], prefix: str = "wall"
) -> Dict[str, float]:
    """``{prefix}_p50_ms`` / ``{prefix}_p99_ms`` over per-call seconds,
    and ``{prefix}_samples``, the number of samples they rank."""
    ordered = sorted(seconds)
    return {
        f"{prefix}_p50_ms": round(_nearest_rank(ordered, 50.0) * 1000.0, 4),
        f"{prefix}_p99_ms": round(_nearest_rank(ordered, 99.0) * 1000.0, 4),
        f"{prefix}_samples": len(ordered),
    }


def wall_latency_stats(
    fn: Callable[[], object], repeats: int = 30, prefix: str = "wall"
) -> Dict[str, float]:
    """Run ``fn`` ``repeats`` times and summarize its per-call latency."""
    samples = []
    for _ in range(repeats):
        started = time.perf_counter()
        fn()
        samples.append(time.perf_counter() - started)
    return summarize_latencies(samples, prefix=prefix)
