"""Exact key-run decomposition of a rect query (range-query planning).

A rect query maps to ``c(q, π)`` contiguous key runs under a curve; a
1-D index answers the query with one sequential scan per run (one disk
"seek" each, in the paper's motivation).  This module computes the runs
themselves, not just their number:

* for the 2-D onion curve: closed form, from the rect's corners alone —
  the rect's arcs of each ring it cuts, plus one interval for the rings
  wholly inside it (:func:`repro.curves.onion2d.onion2d_rect_runs`);
  no cell is keyed;
* for other continuous / sparse-jump curves: cluster *starts* are cells
  whose predecessor lies outside the query, cluster *ends* are cells
  whose successor lies outside — both live on the boundary shell (plus
  jump cells and universe endpoints), so the runs are found in
  O(surface);
* for prefix-contiguous curves: merged aligned-block ranges;
* otherwise: runs of the sorted key set (O(volume)).

The number of runs always equals
:func:`repro.core.clustering.clustering_number`, which the tests assert.
"""

from __future__ import annotations

from typing import List, Sequence, Tuple

import numpy as np

from ..curves.base import SpaceFillingCurve
from ..curves.onion2d import OnionCurve2D, onion2d_rect_runs
from ..geometry import Rect
from .clustering import _contains_many, boundary_cells_array
from .prefix_ranges import block_ranges, merge_ranges

__all__ = [
    "has_closed_form_runs",
    "query_runs",
    "query_runs_vectorized",
    "merge_runs_with_gaps",
]

KeyRun = Tuple[int, int]  # inclusive (start_key, end_key)


def merge_runs_with_gaps(runs: Sequence[KeyRun], gap_tolerance: int) -> List[KeyRun]:
    """Merge key runs whose gaps are at most ``gap_tolerance`` keys wide.

    This implements the relaxed retrieval model of Asano et al. /
    Haverkort discussed in the paper's related work: the scanner may read
    a *superset* of the query's cells in exchange for fewer seeks.  The
    merged runs cover every original key plus the tolerated gap cells;
    the records of those cells are over-read: the executor still
    returns only the records of the original runs.

    Returns the merged runs (sorted, disjoint).  ``gap_tolerance = 0``
    degenerates to merging only exactly-adjacent runs (a no-op for the
    output of :func:`query_runs`, whose runs are maximal).
    """
    if gap_tolerance < 0:
        raise ValueError(f"gap_tolerance must be >= 0, got {gap_tolerance}")
    if not runs:
        return []
    merged = [runs[0]]
    for start, end in runs[1:]:
        last_start, last_end = merged[-1]
        if start - last_end - 1 <= gap_tolerance:
            merged[-1] = (last_start, max(last_end, end))
        else:
            merged.append((start, end))
    return merged


def _runs_exhaustive(curve: SpaceFillingCurve, rect: Rect) -> List[KeyRun]:
    keys = np.sort(curve.keys_of(rect.cells_array()))
    if keys.size == 0:
        return []
    breaks = np.nonzero(np.diff(keys) > 1)[0]
    starts = np.concatenate([[0], breaks + 1])
    ends = np.concatenate([breaks, [keys.size - 1]])
    return [(int(keys[s]), int(keys[e])) for s, e in zip(starts, ends)]


def _candidate_cells(curve: SpaceFillingCurve, rect: Rect) -> np.ndarray:
    """Every cell that can start or end a key run of ``rect``.

    The boundary shell, the curve's first and last cells, and — for
    sparse-jump curves — each jump cell *and* the cell just before it
    (key − 1), which covers run ends at jump predecessors.
    """
    pieces: List[np.ndarray] = [boundary_cells_array(rect)]
    endpoints = [c for c in (curve.first_cell, curve.last_cell) if rect.contains(c)]
    if endpoints:
        pieces.append(np.asarray(endpoints, dtype=np.int64))
    if not curve.is_continuous:
        jumps = curve.jump_cells()
        if jumps.shape[0]:
            both = np.concatenate([jumps, curve.jump_predecessor_cells()], axis=0)
            inside = _contains_many(rect, both)
            if inside.any():
                pieces.append(both[inside])
    if len(pieces) == 1:
        return pieces[0]
    return np.unique(np.concatenate(pieces, axis=0), axis=0)


def _runs_boundary(curve: SpaceFillingCurve, rect: Rect) -> List[KeyRun]:
    cells = _candidate_cells(curve, rect)
    keys = curve.keys_of(cells)
    n = curve.size

    start_mask = keys == 0
    positive_idx = np.nonzero(keys > 0)[0]
    if positive_idx.size:
        preds = curve.cells_of(keys[positive_idx] - 1)
        start_mask[positive_idx[~_contains_many(rect, preds)]] = True

    end_mask = keys == n - 1
    not_last_idx = np.nonzero(keys < n - 1)[0]
    if not_last_idx.size:
        succs = curve.cells_of(keys[not_last_idx] + 1)
        end_mask[not_last_idx[~_contains_many(rect, succs)]] = True

    starts = np.sort(keys[start_mask])
    ends = np.sort(keys[end_mask])
    if starts.size != ends.size:
        raise AssertionError(
            f"run starts ({starts.size}) and ends ({ends.size}) out of balance"
        )
    return [(int(s), int(e)) for s, e in zip(starts, ends)]


def query_runs_vectorized(curve: SpaceFillingCurve, rect: Rect) -> List[KeyRun]:
    """Exact key runs from keying every cell of the rect at once
    (:meth:`~repro.curves.base.SpaceFillingCurve.keys_of`).

    O(volume), but a single vectorized kernel invocation with no
    boundary/discontinuity machinery — the planner's fast path for small
    rects on curves with true numpy kernels.  Output is identical to
    :func:`query_runs`.
    """
    rect.check_fits(curve.side)
    return _runs_exhaustive(curve, rect)


def has_closed_form_runs(curve: SpaceFillingCurve) -> bool:
    """True when :func:`query_runs` computes ``curve``'s runs in closed form
    from the rect's corners, calling no curve kernel (the 2-D onion curve)."""
    return isinstance(curve, OnionCurve2D)


def query_runs(curve: SpaceFillingCurve, rect: Rect) -> List[KeyRun]:
    """Inclusive key runs ``[(start, end), …]`` covering exactly ``rect``.

    Sorted by start key; the run count equals the query's clustering
    number under the curve.
    """
    rect.check_fits(curve.side)
    if has_closed_form_runs(curve):
        return onion2d_rect_runs(curve.side, rect.lo, rect.hi)
    if curve.is_continuous or curve.has_sparse_discontinuities:
        return _runs_boundary(curve, rect)
    if curve.is_prefix_contiguous:
        merged = merge_ranges(block_ranges(curve, rect))
        return [(start, start + size - 1) for start, size in merged]
    return _runs_exhaustive(curve, rect)
