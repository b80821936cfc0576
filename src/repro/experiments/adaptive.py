"""Adaptive serving: a rows→cubes drifting trace, migrated live.

Lemma 10 says no curve wins every query shape: the row-major curve is
unbeatable on full-row scans, the onion curve wins large near-cubes.
This experiment replays exactly that tension as a *drifting trace*: the
first half of the workload is full-row queries (the incumbent row-major
curve is optimal), then the workload drifts to large cube queries (the
incumbent becomes regretful).  Two indexes serve the same trace:

* **static** — stays on the incumbent row-major curve forever;
* **adaptive** — an identical index under an
  :class:`~repro.adaptive.AdaptiveController`: the recorder's decayed
  histogram follows the drift, the detector flags the regret, and the
  online migrator re-keys the index to the winning curve mid-trace.

The report splits measured seeks by phase.  The acceptance claim is the
**drifted tail** (queries after the cutover): the adaptive index must
spend strictly fewer seeks than the static baseline there, and the
exact advisor's expected seeks agree on the direction.
"""

from __future__ import annotations

from typing import List, Tuple

import numpy as np

from ..adaptive import AdaptiveController, DriftDetector, OnlineMigrator, WorkloadRecorder
from ..curves import make_curve
from ..geometry import Rect
from ..index import SFCIndex, advise
from .config import Scale, get_scale
from .report import ExperimentResult

__all__ = ["run"]

#: Full-grid universes stay small enough to bulk-load at any scale.
_MAX_SIDE = {2: 32, 3: 16}
#: Small pages keep run gaps wider than a page, so measured seeks track
#: the clustering number instead of being swallowed by page merging.
_PAGE_CAPACITY = 4
#: Candidate curve names registered with the drift detector.
_CANDIDATES = ("rowmajor", "onion", "hilbert")


def _trace(side: int, dim: int, count: int, rng) -> Tuple[List[Rect], int]:
    """Rows for the first half, cubes after: returns (rects, drift_start)."""
    drift_start = count // 3
    # Large near-cubes: the regime where the onion curve's near-optimal
    # clustering beats row-major by the widest measured margin.
    cube = max(2, (5 * side) // 8 if dim == 2 else (3 * side) // 4)
    rects: List[Rect] = []
    for i in range(count):
        if i < drift_start:
            origin = [0] + [int(rng.integers(0, side)) for _ in range(dim - 1)]
            lengths = [side] + [1] * (dim - 1)
        else:
            origin = [int(rng.integers(0, side - cube + 1)) for _ in range(dim)]
            lengths = [cube] * dim
        rects.append(Rect.from_origin(origin, lengths))
    return rects, drift_start


def run(scale: Scale = None, dim: int = 2) -> ExperimentResult:
    """Regenerate the adaptive-serving comparison for ``dim`` in {2, 3}."""
    scale = scale or get_scale()
    side = min(scale.side_2d if dim == 2 else scale.side_3d, _MAX_SIDE[dim])
    count = min(scale.queries_2d if dim == 2 else scale.queries_3d, 90)
    rng = np.random.default_rng(scale.seed + 17 * dim)
    points = [tuple(map(int, p)) for p in np.ndindex(*([side] * dim))]
    rects, drift_start = _trace(side, dim, count, rng)

    incumbent = make_curve("rowmajor", side, dim)
    static = SFCIndex(incumbent, page_capacity=_PAGE_CAPACITY)
    static.bulk_load(points)
    static.flush()

    recorder = WorkloadRecorder(half_life=8.0)
    adaptive = SFCIndex(
        make_curve("rowmajor", side, dim),
        page_capacity=_PAGE_CAPACITY,
        recorder=recorder,
    )
    adaptive.bulk_load(points)
    adaptive.flush()
    candidates = [make_curve(name, side, dim) for name in _CANDIDATES]
    controller = AdaptiveController(
        adaptive,
        candidates,
        detector=DriftDetector(
            candidates, regret_threshold=0.15, min_observations=8, check_interval=4
        ),
        migrator=OnlineMigrator(batch_size=1024),
    )

    cutover_at = None
    static_seeks: List[int] = []
    adaptive_seeks: List[int] = []
    for i, rect in enumerate(rects):
        static_seeks.append(static.range_query(rect).seeks)
        adaptive_seeks.append(adaptive.range_query(rect).seeks)
        event = controller.maybe_adapt()
        if event is not None and event.migration is not None and cutover_at is None:
            cutover_at = i + 1

    tail_start = cutover_at if cutover_at is not None else count
    phases = [
        ("rows (incumbent optimal)", 0, drift_start),
        ("cubes pre-cutover", drift_start, tail_start),
        ("cubes drifted tail", tail_start, count),
    ]
    rows = []
    for label, start, stop in phases:
        if stop <= start:
            continue
        queries = stop - start
        s = sum(static_seeks[start:stop])
        a = sum(adaptive_seeks[start:stop])
        rows.append(
            (
                label,
                queries,
                s,
                a,
                round(s / a, 2) if a else float("inf"),
            )
        )

    tail_shape = tuple(rects[-1].lengths)
    expected = {
        score.curve.name: score.expected_seeks
        for score in advise(candidates, [tail_shape])
    }
    winner = adaptive.curve.name
    notes = [
        (
            f"cutover after query {cutover_at}: migrated to {winner}"
            if cutover_at is not None
            else "no migration triggered (drift never exceeded the regret threshold)"
        ),
        f"expected seeks on tail shape {tail_shape}: "
        + ", ".join(f"{name} {value:.2f}" for name, value in sorted(expected.items())),
        "acceptance: adaptive seeks strictly below static on the drifted tail",
    ]
    return ExperimentResult(
        experiment=f"adaptive{'a' if dim == 2 else 'b'}",
        title=(
            f"adaptive rows->cubes drifting trace, {dim}-d "
            f"(side {side}, {count} queries, drift at {drift_start}, "
            f"scale={scale.name})"
        ),
        headers=["phase", "queries", "static seeks", "adaptive seeks", "reduction"],
        rows=rows,
        notes=notes,
    )
