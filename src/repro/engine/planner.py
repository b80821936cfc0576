"""The planner: turns (curve, rect, policy) into an immutable QueryPlan.

Planning is pure computation — no I/O, no index state beyond the optional
:class:`~repro.engine.plan.PageLayout` — which is what lets callers
inspect and compare plans (e.g. rank curves by ``estimated_cost``) before
touching the disk, and lets the :class:`~repro.engine.cache.PlanCache`
reuse them across repeated queries.  A planner is built from its curve
alone, and its plans price with the one
:data:`~repro.engine.cost.DEFAULT_COST_MODEL`.

Run construction goes through :func:`repro.core.runs.query_runs`.  For
the 2-D onion curve that is a closed form: the runs follow from the
rect's corners (its arcs of each onion ring it cuts, and one interval
for the rings wholly inside it), with no curve kernel call, faster than
either kernel-based construction at every rect size, so the planner
always takes it.  For every other curve the planner picks between
``query_runs`` (boundary/prefix machinery, O(surface)) and the
bulk-vectorized :func:`repro.core.runs.query_runs_vectorized` (one
``index_many`` call over the rect's cells, O(volume)).  That crossover
is *curve-aware*: the vectorized path wins while the rect's volume stays
within a small factor of its boundary-shell surface (the boundary path
touches each surface cell with several kernel invocations), and it
requires the curve to ship a true numpy ``index_many`` kernel.
``benchmarks/test_bench_planner_crossover.py`` measures the paths across
rect sizes and justifies the factor.

The planner also estimates without planning any query:
:meth:`Planner.expected_seeks` is the exact mean clustering number over
*all* translations of a window size, computed by the
:mod:`repro.core.sweep` translation-sweep kernel and cached per window
size, giving cost estimation for workload sizing before a single rect is
planned.
"""

from __future__ import annotations

import time
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from ..core.runs import (
    has_closed_form_runs,
    merge_runs_with_gaps,
    query_runs,
    query_runs_vectorized,
)
from ..core.sweep import sweep_average_clustering
from ..curves.base import SpaceFillingCurve
from ..obs.metrics import METRICS
from ..obs.trace import span as _obs_span
from .plan import ExecutionPolicy, KeyRun, PageLayout, QueryPlan
from ..geometry import Rect

__all__ = [
    "Planner",
    "VECTORIZE_SURFACE_RATIO",
    "VECTORIZE_PREFIX_VOLUME_MAX",
]

_PLANS = METRICS.counter("repro_planner_plans_total", "range-query plans produced")
_PLAN_LATENCY = METRICS.histogram(
    "repro_plan_latency_seconds", "wall time of Planner.plan"
)

#: Curve-aware crossover for boundary-capable (continuous / sparse-jump)
#: curves: vectorize while ``volume <= ratio × surface_cells``.  The
#: boundary path runs ~4 kernel invocations (keys, predecessors,
#: successors, membership) over the surface shell plus per-query jump
#: filtering; the vectorized path runs one ``index_many`` over the
#: volume plus a sort.  The micro-benchmark in
#: ``benchmarks/test_bench_planner_crossover.py`` shows the measured
#: crossover sits above this ratio for every kernel-backed curve, so the
#: heuristic only vectorizes clear wins.
VECTORIZE_SURFACE_RATIO = 4

#: Crossover for curves *without* a boundary path (prefix-contiguous or
#: exhaustive-only): their alternative run construction is per-block
#: Python recursion (Z/Gray) or the very same exhaustive scan, both of
#: which the micro-benchmark measures as slower than one bulk
#: ``index_many`` until sheer volume dominates; the cap only bounds the
#: materialized key array (~32 MB of int64 keys).
VECTORIZE_PREFIX_VOLUME_MAX = 1 << 22


def _surface_cells(rect: Rect) -> int:
    """Number of cells on the rect's boundary shell (volume − interior)."""
    interior = 1
    for length in rect.lengths:
        interior *= max(0, length - 2)
    return rect.volume - interior


class Planner:
    """Produces :class:`QueryPlan` objects for one curve.

    Key runs come from the closed form for the 2-D onion curve, and from
    the cheaper side of the surface/volume crossover for every other
    curve (see the module docstring).

    Parameters
    ----------
    curve:
        The curve keys are computed under.
    """

    def __init__(self, curve: SpaceFillingCurve):
        self._curve = curve
        # Only curves that override the base (loop-based) kernel benefit
        # from the O(volume) bulk path.
        self._has_vector_kernel = (
            type(curve).index_many is not SpaceFillingCurve.index_many
        )
        self._closed_form = has_closed_form_runs(curve)
        self._expected_seeks: Dict[Tuple[int, ...], float] = {}

    @property
    def curve(self) -> SpaceFillingCurve:
        """The curve this planner plans for."""
        return self._curve

    def _use_vectorized(self, rect: Rect) -> bool:
        """Route ``rect`` through the O(volume) bulk path?"""
        if self._closed_form or not self._has_vector_kernel or rect.volume == 0:
            return False
        if self._curve.is_continuous or self._curve.has_sparse_discontinuities:
            return rect.volume <= VECTORIZE_SURFACE_RATIO * _surface_cells(rect)
        return rect.volume <= VECTORIZE_PREFIX_VOLUME_MAX

    def key_runs(self, rect: Rect) -> List[KeyRun]:
        """Exact key runs of ``rect``, choosing the cheaper construction."""
        if self._use_vectorized(rect):
            return query_runs_vectorized(self._curve, rect)
        return query_runs(self._curve, rect)

    # ------------------------------------------------------------------
    # Expected seeks (cost estimation without planning)
    # ------------------------------------------------------------------
    def expected_seeks(self, lengths: Sequence[int]) -> float:
        """Exact mean seek count of a *random* translation of the window.

        This is the paper's ``c(Q, π)`` for the translation set of a
        rect with the given side ``lengths`` — the expected number of
        key runs (one seek each in the pure model) — computed by the
        translation-sweep kernel over every placement, no sampling, and
        cached per window size on the planner.
        """
        window = tuple(int(l) for l in lengths)
        cached = self._expected_seeks.get(window)
        if cached is None:
            cached = sweep_average_clustering(self._curve, window)
            self._expected_seeks[window] = cached
        return cached

    def plan(
        self,
        rect: Rect,
        policy: ExecutionPolicy = ExecutionPolicy(),
        layout: Optional[PageLayout] = None,
    ) -> QueryPlan:
        """Plan one range query.

        With a ``layout`` the plan carries the record positions of its
        scan runs and of its exact runs, and the scan runs' pages
        (:meth:`PageLayout.resolve`), and predicts the executor's exact
        seek/sequential split; without one it falls back to the paper's
        pure model (one seek per scan run).
        """
        rect.check_fits(self._curve.side)
        with _obs_span("plan", kind="plan") as sp:
            started = time.perf_counter() if METRICS.enabled else 0.0
            runs = tuple(self.key_runs(rect))
            scan_runs = (
                tuple(merge_runs_with_gaps(runs, policy.gap_tolerance))
                if policy.gap_tolerance
                else runs
            )
            positions = layout.resolve(scan_runs, runs) if layout is not None else None
            plan = QueryPlan(
                curve=self._curve,
                rect=rect,
                policy=policy,
                runs=runs,
                scan_runs=scan_runs,
                positions=positions,
            )
            sp.set("curve", self._curve.name)
            sp.set("runs", len(runs))
            sp.set("scan_runs", len(scan_runs))
            if started:  # 0.0: metrics were off as planning began
                _PLANS.inc()
                _PLAN_LATENCY.observe(time.perf_counter() - started)
        return plan

    def plan_many(
        self,
        rects: Iterable[Rect],
        policy: ExecutionPolicy = ExecutionPolicy(),
        layout: Optional[PageLayout] = None,
    ) -> List[QueryPlan]:
        """Plan a whole workload (one plan per rect, same policy)."""
        return [self.plan(rect, policy, layout) for rect in rects]
