"""Clustering-number computation: ``c(q, π)`` for a rect query.

Three exact algorithms, picked automatically by :func:`clustering_number`:

``exhaustive``
    Sort the keys of every cell of the query and count run breaks.
    Works for any curve; O(|q| log |q|).  Infeasible for the paper's
    largest queries (a 472³ cube has ~10⁸ cells).

``boundary``
    A cluster can only start at a cell whose curve predecessor lies
    outside the query.  For a *continuous* curve the predecessor is a grid
    neighbor, so cluster starts live on the query's boundary shell; for a
    curve with a sparse, enumerable set of jump cells (the 3-D onion) the
    jump cells inside the query are checked as well.  Cost is
    O(surface area) with vectorized key evaluations — this is what makes
    the paper's 512³ experiments tractable in Python.

``prefix``
    For prefix-contiguous curves (Z, Gray) the query is decomposed into
    maximal aligned power-of-two blocks, each a contiguous key range;
    sorted ranges are merged and counted.  O(perimeter · log side).
"""

from __future__ import annotations

from typing import Iterable, List, Optional, Sequence, Tuple

import numpy as np

from ..curves.base import SpaceFillingCurve
from ..errors import CurveCapabilityError, InvalidQueryError
from ..geometry import Rect
from .prefix_ranges import block_ranges

__all__ = [
    "boundary_cells_array",
    "clustering_number",
    "clustering_number_exhaustive",
    "clustering_number_boundary",
    "clustering_number_prefix",
    "clustering_distribution",
    "average_clustering",
]


def boundary_cells_array(rect: Rect) -> np.ndarray:
    """All cells of the rect's boundary shell as an ``(n, dim)`` array.

    Each boundary cell appears exactly once: cells are classified by the
    first axis on which they are extremal, with earlier axes restricted to
    their interior ranges.
    """
    pieces: List[np.ndarray] = []
    dim = rect.dim
    for axis in range(dim):
        extremes = [rect.lo[axis]]
        if rect.hi[axis] != rect.lo[axis]:
            extremes.append(rect.hi[axis])
        ranges: List[np.ndarray] = []
        empty = False
        for b in range(dim):
            if b < axis:
                r = np.arange(rect.lo[b] + 1, rect.hi[b], dtype=np.int64)
                if r.size == 0:
                    empty = True
                    break
            elif b == axis:
                r = np.asarray(extremes, dtype=np.int64)
            else:
                r = np.arange(rect.lo[b], rect.hi[b] + 1, dtype=np.int64)
            ranges.append(r)
        if empty:
            continue
        mesh = np.meshgrid(*ranges, indexing="ij")
        pieces.append(np.stack([m.ravel() for m in mesh], axis=1))
    if not pieces:
        return np.empty((0, dim), dtype=np.int64)
    return np.concatenate(pieces, axis=0)


def _contains_many(rect: Rect, cells: np.ndarray) -> np.ndarray:
    """Vectorized rect membership for an ``(n, dim)`` array of cells."""
    inside = np.ones(cells.shape[0], dtype=bool)
    for axis in range(rect.dim):
        inside &= (cells[:, axis] >= rect.lo[axis]) & (cells[:, axis] <= rect.hi[axis])
    return inside


def clustering_number_exhaustive(curve: SpaceFillingCurve, rect: Rect) -> int:
    """Exact cluster count by sorting every cell key (any curve)."""
    rect.check_fits(curve.side)
    keys = np.sort(curve.keys_of(rect.cells_array()))
    if keys.size == 0:
        return 0
    return 1 + int(np.count_nonzero(np.diff(keys) > 1))


def start_candidate_cells(curve: SpaceFillingCurve, rect: Rect) -> np.ndarray:
    """Cells of ``rect`` that can possibly start a key run, deduplicated.

    These are the boundary shell, the curve's jump cells that fall inside
    the rect (for sparse-jump curves), and the curve's first cell.
    """
    pieces = [boundary_cells_array(rect)]
    first = curve.first_cell
    if rect.contains(first):
        pieces.append(np.asarray([first], dtype=np.int64))
    if not curve.is_continuous:
        jumps = curve.jump_cells()
        if jumps.shape[0]:
            inside = _contains_many(rect, jumps)
            if inside.any():
                pieces.append(jumps[inside])
    if len(pieces) == 1:
        return pieces[0]
    return np.unique(np.concatenate(pieces, axis=0), axis=0)


def clustering_number_boundary(curve: SpaceFillingCurve, rect: Rect) -> int:
    """Exact cluster count from the boundary shell (continuous/sparse curves).

    Counts cells of the query whose curve predecessor falls outside it.
    Such a cell is on the boundary shell, is one of the curve's enumerated
    jump cells, or holds key 0.
    """
    if not (curve.is_continuous or curve.has_sparse_discontinuities):
        raise CurveCapabilityError(
            f"{curve!r} is neither continuous nor sparse-jump; "
            "use the exhaustive or prefix method"
        )
    rect.check_fits(curve.side)
    cells = start_candidate_cells(curve, rect)
    keys = curve.keys_of(cells)
    starts = int(np.count_nonzero(keys == 0))
    positive = keys[keys > 0]
    if positive.size:
        preds = curve.cells_of(positive - 1)
        starts += int(np.count_nonzero(~_contains_many(rect, preds)))
    return starts


def clustering_number_prefix(curve: SpaceFillingCurve, rect: Rect) -> int:
    """Exact cluster count via aligned-block decomposition (Z/Gray curves)."""
    ranges = block_ranges(curve, rect)
    clusters = 0
    previous_end = None
    for start, size in ranges:
        if previous_end is None or start > previous_end:
            clusters += 1
        previous_end = start + size
    return clusters


def clustering_number(
    curve: SpaceFillingCurve,
    rect: Rect,
    method: Optional[str] = None,
) -> int:
    """Exact ``c(q, π)`` for one rect query, dispatching on curve capability.

    ``method`` forces ``"exhaustive"``, ``"boundary"`` or ``"prefix"``.
    """
    if method is None:
        if curve.is_continuous or curve.has_sparse_discontinuities:
            method = "boundary"
        elif curve.is_prefix_contiguous:
            method = "prefix"
        else:
            method = "exhaustive"
    if method == "boundary":
        return clustering_number_boundary(curve, rect)
    if method == "prefix":
        return clustering_number_prefix(curve, rect)
    if method == "exhaustive":
        return clustering_number_exhaustive(curve, rect)
    raise InvalidQueryError(f"unknown clustering method {method!r}")


def clustering_distribution(
    curve: SpaceFillingCurve,
    rects: Iterable[Rect],
    method: Optional[str] = None,
) -> np.ndarray:
    """Cluster counts for every query in ``rects`` as an int64 array."""
    return np.asarray(
        [clustering_number(curve, rect, method=method) for rect in rects],
        dtype=np.int64,
    )


def average_clustering(
    curve: SpaceFillingCurve,
    rects: Sequence[Rect],
    method: Optional[str] = None,
) -> float:
    """Mean cluster count over a query workload (``c(Q, π)`` sampled)."""
    counts = clustering_distribution(curve, rects, method=method)
    if counts.size == 0:
        raise InvalidQueryError("empty query workload")
    return float(counts.mean())
