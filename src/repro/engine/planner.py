"""The planner: turns (curve, rect, policy) into an immutable QueryPlan.

Planning is pure computation — no I/O, no index state beyond the optional
:class:`~repro.engine.plan.PageLayout` — which is what lets callers
inspect and compare plans (e.g. rank curves by ``estimated_cost``) before
touching the disk, and lets the :class:`~repro.engine.cache.PlanCache`
reuse them across repeated queries.

Run construction dispatches between :func:`repro.core.runs.query_runs`
(boundary/prefix machinery, O(surface)) and the bulk-vectorized
:func:`repro.core.runs.query_runs_vectorized` (one ``index_many`` call
over the rect's cells, O(volume)).  The crossover is *curve-aware*: the
vectorized path wins while the rect's volume stays within a small factor
of its boundary-shell surface (the boundary path touches each surface
cell with several kernel invocations), and it requires the curve to ship
a true numpy ``index_many`` kernel.  ``benchmarks/
test_bench_planner_crossover.py`` measures the two paths across rect
sizes and justifies the factor.

The planner also precomputes **expected-seeks tables** without planning
any query: :meth:`Planner.expected_seeks` is the exact mean clustering
number over *all* translations of a window size, computed by the
:mod:`repro.core.sweep` translation-sweep kernel and cached per window
size, giving cost estimation for workload sizing before a single rect is
planned.
"""

from __future__ import annotations

import time
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from ..core.runs import merge_runs_with_gaps, query_runs, query_runs_vectorized
from ..core.sweep import sweep_average_clustering
from ..curves.base import SpaceFillingCurve
from ..obs.metrics import METRICS
from ..obs.trace import span as _obs_span
from .cost import DEFAULT_COST_MODEL, CostModel
from .plan import ExecutionPolicy, KeyRun, PageLayout, QueryPlan
from ..geometry import Rect

__all__ = [
    "Planner",
    "VECTORIZE_VOLUME_MAX",
    "VECTORIZE_SURFACE_RATIO",
    "VECTORIZE_PREFIX_VOLUME_MAX",
]

_PLANS = METRICS.counter("repro_planner_plans_total", "range-query plans produced")
_PLAN_LATENCY = METRICS.histogram(
    "repro_plan_latency_seconds", "wall time of Planner.plan"
)

#: Legacy fixed crossover: pass ``vectorize_volume_max`` explicitly to
#: restore a pure volume cap (0 disables the vectorized path).
VECTORIZE_VOLUME_MAX = 1024

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

    Parameters
    ----------
    curve:
        The curve keys are computed under.
    cost_model:
        Prices attached to every plan (estimated costs use it).
    vectorize_volume_max:
        ``None`` (default) selects the curve-aware surface-vs-volume
        heuristic.  An explicit integer restores the legacy fixed cap:
        rects up to that volume use the bulk ``index_many`` run
        construction when the curve ships a vectorized kernel; ``0``
        disables the fast path entirely.
    recorder:
        Optional :class:`~repro.adaptive.WorkloadRecorder`: every built
        plan is reported (shape + predicted seeks) so the adaptive
        control plane sees what gets planned.  Cache hits bypass the
        planner, so executed-query telemetry comes from the executors.
    """

    def __init__(
        self,
        curve: SpaceFillingCurve,
        cost_model: CostModel = DEFAULT_COST_MODEL,
        vectorize_volume_max: Optional[int] = None,
        recorder=None,
    ):
        self._curve = curve
        self._cost_model = cost_model
        self._vectorize_volume_max = vectorize_volume_max
        self._recorder = recorder
        # Only curves that override the base (loop-based) kernel benefit
        # from the O(volume) bulk path.
        self._has_vector_kernel = (
            type(curve).index_many is not SpaceFillingCurve.index_many
        )
        self._expected_seeks: Dict[Tuple[int, ...], float] = {}

    @property
    def curve(self) -> SpaceFillingCurve:
        """The curve this planner plans for."""
        return self._curve

    @property
    def cost_model(self) -> CostModel:
        """The cost model attached to produced plans."""
        return self._cost_model

    @property
    def recorder(self):
        """The workload recorder planning events report to (or None)."""
        return self._recorder

    def _use_vectorized(self, rect: Rect) -> bool:
        """Route ``rect`` through the O(volume) bulk path?"""
        if not self._has_vector_kernel or rect.volume == 0:
            return False
        if self._vectorize_volume_max is not None:
            return rect.volume <= self._vectorize_volume_max
        if self._curve.is_continuous or self._curve.has_sparse_discontinuities:
            return rect.volume <= VECTORIZE_SURFACE_RATIO * _surface_cells(rect)
        return rect.volume <= VECTORIZE_PREFIX_VOLUME_MAX

    def key_runs(self, rect: Rect) -> List[KeyRun]:
        """Exact key runs of ``rect``, choosing the cheaper construction."""
        if self._use_vectorized(rect):
            return query_runs_vectorized(self._curve, rect)
        return query_runs(self._curve, rect)

    # ------------------------------------------------------------------
    # Expected-seeks tables (cost estimation without planning)
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

    def expected_seeks_table(
        self, windows: Iterable[Sequence[int]]
    ) -> Dict[Tuple[int, ...], float]:
        """Expected seeks for many window sizes (one cached sweep each)."""
        return {
            tuple(int(l) for l in window): self.expected_seeks(window)
            for window in windows
        }

    def expected_cost(self, lengths: Sequence[int]) -> float:
        """Predicted simulated time of one random placement of the window.

        Prices :meth:`expected_seeks` with the planner's cost model under
        the paper's pure model (one seeking read per run); no plan is
        built and no rect position is needed.
        """
        return self._cost_model.io_cost(self.expected_seeks(lengths), 0)

    def plan(
        self,
        rect: Rect,
        policy: ExecutionPolicy = ExecutionPolicy(),
        layout: Optional[PageLayout] = None,
    ) -> QueryPlan:
        """Plan one range query.

        With a ``layout`` the plan carries per-run page spans and predicts
        the executor's exact seek/sequential split; without one it falls
        back to the paper's pure model (one seek per scan run).
        """
        rect.check_fits(self._curve.side)
        with _obs_span("plan", kind="plan") as sp:
            started = time.perf_counter() if METRICS.enabled else 0.0
            runs = self.key_runs(rect)
            scan_runs = (
                merge_runs_with_gaps(runs, policy.gap_tolerance)
                if policy.gap_tolerance
                else runs
            )
            page_spans = (
                tuple(layout.span(start, end) for start, end in scan_runs)
                if layout is not None
                else None
            )
            plan = QueryPlan(
                curve=self._curve,
                rect=rect,
                policy=policy,
                runs=tuple(runs),
                scan_runs=tuple(scan_runs),
                page_spans=page_spans,
                cost_model=self._cost_model,
            )
            sp.set("curve", self._curve.name)
            sp.set("runs", len(runs))
            sp.set("scan_runs", len(scan_runs))
            if started:  # 0.0: metrics were off as planning began
                _PLANS.inc()
                _PLAN_LATENCY.observe(time.perf_counter() - started)
        if self._recorder is not None:
            self._recorder.record_planned(plan)
        return plan

    def plan_many(
        self,
        rects: Iterable[Rect],
        policy: ExecutionPolicy = ExecutionPolicy(),
        layout: Optional[PageLayout] = None,
    ) -> List[QueryPlan]:
        """Plan a whole workload (one plan per rect, same policy)."""
        return [self.plan(rect, policy, layout) for rect in rects]
