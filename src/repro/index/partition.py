"""Curve-range partitioning (the distributed use case from the paper's intro).

Systems like distributed spatial stores and parallel simulations shard
multi-dimensional data by cutting a space filling curve into contiguous
key ranges (cf. the WSDM'16 linear-embedding partitioner and hashed
oct-tree N-body codes cited by the paper).  A range query then touches
every shard one of its key runs intersects; curves that cluster better
touch fewer shards.

``equal_key_shards`` cuts the key space evenly; ``balanced_shards`` cuts
at quantiles of an observed key sample (load balancing); and
``shards_touched`` / ``average_shards_touched`` measure query spread.
"""

from __future__ import annotations

import bisect
from typing import Iterable, List, Sequence, Set, Tuple

import numpy as np

from ..curves.base import SpaceFillingCurve
from ..core.runs import query_runs
from ..errors import InvalidQueryError
from ..geometry import Rect

__all__ = [
    "equal_key_shards",
    "balanced_shards",
    "shard_of_key",
    "shards_touched",
    "average_shards_touched",
]

#: A shard is an inclusive key range.
Shard = Tuple[int, int]


def equal_key_shards(curve: SpaceFillingCurve, num_shards: int) -> List[Shard]:
    """Cut ``[0, n)`` into ``num_shards`` near-equal contiguous key ranges.

    Shard ``i`` starts at ``n * i // num_shards``, in Python ints, so the
    cuts are exact in a universe whose keys pass float64's 53 bits.
    """
    if num_shards < 1:
        raise InvalidQueryError(f"num_shards must be >= 1, got {num_shards}")
    n = curve.size
    if num_shards > n:
        raise InvalidQueryError(f"cannot cut {n} keys into {num_shards} shards")
    bounds = [n * i // num_shards for i in range(num_shards + 1)]
    return [(a, b - 1) for a, b in zip(bounds, bounds[1:])]


def balanced_shards(keys: Sequence[int], num_shards: int, key_space: int) -> List[Shard]:
    """Cut at key quantiles so each shard holds ~equal record counts.

    ``keys`` is a sample (or the full set) of stored curve keys, such as
    a store's key column; ``key_space`` is the exclusive upper bound of
    the key domain.  Every key must lie in ``[0, key_space)`` — a sample
    outside the domain would silently produce a map not covering the
    key space.  Keys past int64 are sorted exactly, as Python ints.

    Each cut is the *last* sampled key of the shard it closes, so a
    two-key sample split two ways yields one key per shard (cutting at
    the rank itself would pull the whole sample into the first shard
    when the cut rank lands on the final key).  When the sample has
    fewer distinct keys than ``num_shards``, fewer (still covering,
    non-empty-ranged) shards are returned.
    """
    if num_shards < 1:
        raise InvalidQueryError(f"num_shards must be >= 1, got {num_shards}")
    try:
        sorted_keys = np.sort(np.asarray(keys, dtype=np.int64))
    except OverflowError:  # a key past int64
        sorted_keys = np.sort(np.asarray(keys, dtype=object))
    if sorted_keys.size == 0:
        raise InvalidQueryError("cannot balance shards over an empty key sample")
    if sorted_keys[0] < 0 or sorted_keys[-1] >= key_space:
        raise InvalidQueryError(
            f"keys must lie in [0, {key_space}), got range "
            f"[{int(sorted_keys[0])}, {int(sorted_keys[-1])}]"
        )
    cut_ranks = (np.arange(1, num_shards) * sorted_keys.size) // num_shards
    cuts = sorted(set(int(sorted_keys[r - 1]) for r in cut_ranks if r >= 1))
    starts = [0] + [c + 1 for c in cuts]
    ends = cuts + [key_space - 1]
    return [(s, e) for s, e in zip(starts, ends) if s <= e]


def shard_of_key(shards: Sequence[Shard], key: int) -> int:
    """Index of the shard containing ``key``."""
    starts = [s for s, _ in shards]
    pos = bisect.bisect_right(starts, key) - 1
    if pos < 0 or key > shards[pos][1]:
        raise InvalidQueryError(f"key {key} not covered by the shard map")
    return pos


def shards_touched(
    curve: SpaceFillingCurve, rect: Rect, shards: Sequence[Shard]
) -> Set[int]:
    """Shard ids intersected by any key run of the query."""
    touched: Set[int] = set()
    starts = [s for s, _ in shards]
    for run_start, run_end in query_runs(curve, rect):
        pos = max(bisect.bisect_right(starts, run_start) - 1, 0)
        while pos < len(shards) and shards[pos][0] <= run_end:
            if shards[pos][1] >= run_start:
                touched.add(pos)
            pos += 1
    return touched


def average_shards_touched(
    curve: SpaceFillingCurve, rects: Iterable[Rect], shards: Sequence[Shard]
) -> float:
    """Mean number of shards a workload's queries touch (lower is better)."""
    counts = [len(shards_touched(curve, rect, shards)) for rect in rects]
    if not counts:
        raise InvalidQueryError("empty query workload")
    return float(np.mean(counts))
