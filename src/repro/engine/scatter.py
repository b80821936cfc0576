"""Scatter–gather planning and execution for sharded serving.

The serving layer partitions the key space into contiguous shards (the
paper's distributed use case: a range query must contact every shard one
of its key runs intersects).  This module is the engine half of that
layer:

* :class:`ShardedPlanner` plans a rect once globally, then *clips* the
  plan's scan runs to each shard's key interval, producing one
  :class:`~repro.engine.plan.QueryPlan` fragment per shard touched,
  priced with the existing :class:`~repro.engine.cost.CostModel` plus a
  per-shard fan-out penalty (the RPC each extra shard costs);
* :class:`ShardedPlan` bundles the global plan with its fragments and
  predicts the serial I/O profile (identical to the single-index plan)
  plus a cost-model estimate of running the fragments in parallel;
* :class:`ScatterGatherExecutor`, an
  :class:`~repro.engine.executor.Executor`, executes a sharded plan in
  one key-ordered pass that charges exactly the page sequence the
  single index would read, filters each fragment's clipped runs inline
  in shard order, and gathers the per-shard records in key order.

**Shard-transparency by construction.**  Storage is shared (the
disaggregated-storage idiom): shards own key intervals and their own
write paths, but flushed pages live in one store with one global
:class:`~repro.engine.plan.PageLayout`.  Because the executor's I/O
pass reads the *global* plan's pages — the same runs, spans and page
sequence the single-index :class:`~repro.engine.executor.Executor`
reads — a sharded range query returns exactly the same records, seeks
and pages read as the unsharded index, for every curve, page capacity,
shard map and gap tolerance.  The differential suite in
``tests/index/test_sharded_equivalence.py`` proves this.

Per-shard attribution is a *second* accounting: each fragment's I/O is
replayed independently (its own head).  ``parallel_cost(workers)`` and
:func:`makespan` price those per-shard costs as if the shards ran on
that many workers — a simulated cost-model estimate: no code here runs
in parallel.  Serial totals prove transparency; per-shard replays price
the scatter.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple

from ..curves.base import SpaceFillingCurve
from ..errors import InvalidQueryError
from ..geometry import Rect
from ..obs.metrics import METRICS
from ..obs.trace import span as _obs_span
from ..storage.disk import replay_reads
from .cost import DEFAULT_COST_MODEL, CostModel
from .executor import (
    BatchResult,
    Executor,
    PlanStream,
    RangeQueryResult,
    Record,
    resolved_spans,
)
from .plan import ExecutionPolicy, KeyRun, PageLayout, QueryPlan
from .planner import Planner

__all__ = [
    "DEFAULT_FANOUT_COST",
    "ScatterGatherExecutor",
    "ShardFragment",
    "ShardStats",
    "ShardedBatchResult",
    "ShardedPlan",
    "ShardedPlanner",
    "ShardedRangeQueryResult",
    "clip_runs",
    "makespan",
    "scatter_plan",
]

#: A shard is an inclusive key interval (mirrors ``repro.index.partition``).
Shard = Tuple[int, int]

#: Simulated cost (sim-ms) of fanning a query out to one shard — the
#: round trip each extra shard costs, on top of its I/O.
DEFAULT_FANOUT_COST = 2.0


def clip_runs(runs: Sequence[KeyRun], shard: Shard) -> List[KeyRun]:
    """The part of each key run falling inside ``shard``'s interval.

    Clipping preserves coverage: concatenating the clips over a shard
    map that tiles the key space and re-merging adjacent runs
    reconstructs the original runs exactly (the metamorphic suite
    asserts this), so no record is lost or duplicated at a boundary.
    """
    lo, hi = shard
    return [
        (max(start, lo), min(end, hi))
        for start, end in runs
        if start <= hi and end >= lo
    ]


def scatter_plan(
    plan: QueryPlan,
    shards: Sequence[Shard],
    fanout_cost: float = DEFAULT_FANOUT_COST,
    layout: Optional[PageLayout] = None,
) -> "ShardedPlan":
    """Scatter one global plan across ``shards``: clip its runs into
    per-shard :class:`ShardFragment` plans and bundle a :class:`ShardedPlan`.

    The single statement of the clipping rule, shared by
    :meth:`ShardedPlanner.plan` and the :mod:`repro.api` layer's
    merged multi-rect plans, so every plan shape scatters identically.
    Gap merging must already have happened on the global plan (clips
    are taken from its ``scan_runs``), so a tolerated gap spanning a
    shard boundary behaves exactly as it would unsharded.
    """
    with _obs_span("scatter", kind="plan") as sp:
        fragments = []
        for shard_id, shard in enumerate(shards):
            scan_runs = clip_runs(plan.scan_runs, shard)
            if not scan_runs:
                continue
            runs = clip_runs(plan.runs, shard)
            page_spans = (
                tuple(layout.span(start, end) for start, end in scan_runs)
                if layout is not None
                else None
            )
            fragments.append(
                ShardFragment(
                    shard_id=shard_id,
                    shard=shard,
                    plan=QueryPlan(
                        curve=plan.curve,
                        rect=plan.rect,
                        policy=plan.policy,
                        runs=tuple(runs),
                        scan_runs=tuple(scan_runs),
                        page_spans=page_spans,
                        cost_model=plan.cost_model,
                    ),
                )
            )
        sp.set("shards", len(shards))
        sp.set("fragments", len(fragments))
    return ShardedPlan(
        plan=plan,
        fragments=tuple(fragments),
        shards=tuple(shards),
        fanout_cost=fanout_cost,
    )


def makespan(costs: Iterable[float], workers: Optional[int] = None) -> float:
    """Simulated finish time of packing ``costs`` onto ``workers`` workers.

    A cost-model estimate, not a schedule anything executes: greedy
    longest-processing-time assignment — the classic 4/3 approximation,
    deterministic and good enough to *price* a scatter over per-shard
    I/O costs.  ``workers=None`` (or more workers than costs) puts every
    cost on its own worker: the plain max.
    """
    pending = sorted((float(c) for c in costs), reverse=True)
    if not pending:
        return 0.0
    if workers is not None and workers < 1:
        raise InvalidQueryError(f"workers must be >= 1, got {workers}")
    lanes = min(len(pending), workers) if workers is not None else len(pending)
    loads = [0.0] * lanes
    for cost in pending:
        loads[loads.index(min(loads))] += cost
    return max(loads)


@dataclass(frozen=True)
class ShardFragment:
    """One shard's slice of a sharded plan: the clipped runs it serves."""

    shard_id: int
    #: The shard's inclusive key interval.
    shard: Shard
    #: A full query plan over the clipped runs (spans resolved against
    #: the shared layout), so fragments cost and explain like any plan.
    plan: QueryPlan


@dataclass(frozen=True)
class ShardedPlan:
    """A global query plan plus its per-shard fragments.

    ``plan`` is byte-for-byte the plan the unsharded index would build —
    it is the I/O schedule the gather side charges, which is what makes
    sharded execution observationally identical to single-index
    execution.  ``fragments`` cover only the shards the query touches.
    """

    plan: QueryPlan
    fragments: Tuple[ShardFragment, ...]
    shards: Tuple[Shard, ...]
    fanout_cost: float = DEFAULT_FANOUT_COST

    @property
    def shards_touched(self) -> int:
        """Number of shards the query fans out to."""
        return len(self.fragments)

    @property
    def clustering(self) -> int:
        """The query's clustering number under the curve (global)."""
        return self.plan.clustering

    @property
    def first_key(self) -> Optional[int]:
        """Lowest key the plan scans (batch-ordering key); None if empty."""
        return self.plan.first_key

    @property
    def estimated_seeks(self) -> int:
        """Predicted seeks — equals the single-index plan's prediction."""
        return self.plan.estimated_seeks

    @property
    def estimated_pages(self) -> int:
        """Predicted total pages touched (same as unsharded)."""
        return self.plan.estimated_pages

    def estimated_cost(self, cost_model: Optional[CostModel] = None) -> float:
        """Serial simulated cost: the global I/O plus one fan-out per shard."""
        return (
            self.plan.estimated_cost(cost_model)
            + self.fanout_cost * self.shards_touched
        )

    def estimated_parallel_cost(
        self,
        workers: Optional[int] = None,
        cost_model: Optional[CostModel] = None,
    ) -> float:
        """Simulated cost of scattering the fragments over ``workers``.

        A cost-model estimate (no code runs the fragments in parallel):
        each fragment replays its own spans from a parked head (its
        shard's independent I/O), the fragments' costs are packed onto
        the workers by :func:`makespan`, and every shard contacted costs
        one fan-out penalty.
        """
        return self.fanout_cost * self.shards_touched + makespan(
            (f.plan.estimated_cost(cost_model) for f in self.fragments), workers
        )

    def explain(self, max_fragments: int = 8) -> str:
        """Human-readable scatter–gather plan (shard-aware EXPLAIN)."""
        lines = [
            f"ShardedPlan for {self.plan.rect} on {self.plan.curve!r}",
            f"  shards:            {self.shards_touched} touched "
            f"of {len(self.shards)}",
            f"  clustering:        {self.clustering} exact run(s)",
            f"  estimated seeks:   {self.estimated_seeks} "
            "(identical to unsharded)",
            f"  estimated pages:   {self.estimated_pages}",
            f"  serial cost:       {self.estimated_cost():.1f} sim-ms "
            f"(incl. {self.fanout_cost:.1f}/shard fan-out)",
            f"  parallel cost:     {self.estimated_parallel_cost():.1f} sim-ms "
            "(one worker per shard)",
        ]
        for i, fragment in enumerate(self.fragments):
            if i == max_fragments:
                lines.append(
                    f"  … {len(self.fragments) - max_fragments} more shard(s)"
                )
                break
            lo, hi = fragment.shard
            plan = fragment.plan
            lines.append(
                f"  shard {fragment.shard_id} keys [{lo}, {hi}]: "
                f"{plan.num_scan_runs} run(s), "
                f"{plan.estimated_pages} page(s), "
                f"{plan.estimated_cost():.1f} sim-ms"
            )
        return "\n".join(lines)


@dataclass(frozen=True)
class ShardStats:
    """One shard's attributed share of a query or batch execution."""

    shard_id: int
    runs: int
    seeks: int
    sequential_reads: int
    records: int
    over_read: int = 0

    @property
    def pages_read(self) -> int:
        """Pages attributed to this shard."""
        return self.seeks + self.sequential_reads

    def cost(self, cost_model: Optional[CostModel] = None) -> float:
        """This shard's simulated I/O time."""
        model = cost_model or DEFAULT_COST_MODEL
        return model.io_cost(self.seeks, self.sequential_reads)


def _parallel_cost(
    per_shard: Sequence[ShardStats],
    fan_out: int,
    fanout_cost: float,
    workers: Optional[int],
    cost_model: Optional[CostModel],
) -> float:
    """Fan-out penalty plus the makespan of the per-shard I/O costs."""
    return fanout_cost * fan_out + makespan(
        (s.cost(cost_model) for s in per_shard), workers
    )


@dataclass
class ShardedRangeQueryResult(RangeQueryResult):
    """A range-query result with its per-shard scatter breakdown.

    The inherited totals (``seeks``, ``sequential_reads``, ``pages_read``,
    ``over_read``, ``records``) are the *canonical serial* accounting and
    equal the single-index result exactly; ``per_shard`` re-attributes
    the same pages to independent shard heads, which the simulated
    :meth:`parallel_cost` prices.
    """

    per_shard: Tuple[ShardStats, ...] = ()
    fanout_cost: float = DEFAULT_FANOUT_COST

    @property
    def fan_out(self) -> int:
        """Number of shards that served part of this query."""
        return len(self.per_shard)

    def parallel_cost(
        self,
        workers: Optional[int] = None,
        cost_model: Optional[CostModel] = None,
    ) -> float:
        """Simulated latency with the shards scattered over ``workers``.

        A cost-model estimate over the per-shard I/O — fan-out penalty
        plus :func:`makespan` — not a measurement: the executor filters
        every shard inline, on the calling thread.
        """
        return _parallel_cost(
            self.per_shard, self.fan_out, self.fanout_cost, workers, cost_model
        )


@dataclass
class ShardedBatchResult(BatchResult):
    """Aggregate outcome of a scatter–gather batch.

    Inherited totals are canonical-serial (equal to the single index's
    :meth:`~repro.engine.executor.Executor.execute_batch`); ``per_shard``
    aggregates each shard's own batch stream — pages deduplicated *per
    shard* (the shared-scan-per-shard model), replayed on that shard's
    head — and ``total_fan_out`` counts every shard contact the batch
    made.
    """

    results: List[ShardedRangeQueryResult] = field(default_factory=list)
    per_shard: Tuple[ShardStats, ...] = ()
    total_fan_out: int = 0
    fanout_cost: float = DEFAULT_FANOUT_COST

    def parallel_cost(
        self,
        workers: Optional[int] = None,
        cost_model: Optional[CostModel] = None,
    ) -> float:
        """Simulated latency of the whole batch over ``workers`` shard workers.

        A cost-model estimate over the per-shard I/O, like the per-query
        :meth:`ShardedRangeQueryResult.parallel_cost`; nothing runs in
        parallel.  Unlike the per-query cost, the batch pays the fan-out
        penalty once per *shard contacted* (``len(per_shard)``), not once
        per query–shard contact: the modelled scatter ships every shard
        its whole fragment stream in one batched request, which is the
        same amortization the per-shard shared scans model.
        ``total_fan_out`` still counts every contact — that is the
        paper's shards-touched workload metric.
        """
        return _parallel_cost(
            self.per_shard, len(self.per_shard), self.fanout_cost, workers,
            cost_model,
        )


class ShardedPlanner:
    """Plans rect queries against a shard map: global plan + clipped fragments.

    Parameters
    ----------
    curve:
        The curve keys are computed under.
    shards:
        Contiguous inclusive key intervals tiling ``[0, curve.size)``
        (e.g. from :func:`repro.index.partition.equal_key_shards` or
        :func:`~repro.index.partition.balanced_shards`).
    cost_model:
        Prices attached to every plan and fragment.
    fanout_cost:
        Simulated cost of contacting one shard (see
        :data:`DEFAULT_FANOUT_COST`).
    recorder:
        Optional :class:`~repro.adaptive.WorkloadRecorder` the inner
        planner reports built plans to.
    """

    def __init__(
        self,
        curve: SpaceFillingCurve,
        shards: Sequence[Shard],
        cost_model: CostModel = DEFAULT_COST_MODEL,
        fanout_cost: float = DEFAULT_FANOUT_COST,
        recorder=None,
    ):
        self._shards = _validated_shards(shards, curve.size)
        if fanout_cost < 0:
            raise InvalidQueryError(f"fanout_cost must be >= 0, got {fanout_cost}")
        self._fanout_cost = float(fanout_cost)
        self._planner = Planner(curve, cost_model=cost_model, recorder=recorder)

    @property
    def curve(self) -> SpaceFillingCurve:
        """The curve this planner plans for."""
        return self._planner.curve

    @property
    def shards(self) -> Tuple[Shard, ...]:
        """The shard map (inclusive key intervals, ascending)."""
        return self._shards

    @property
    def cost_model(self) -> CostModel:
        """The cost model pricing plans and fragments."""
        return self._planner.cost_model

    @property
    def fanout_cost(self) -> float:
        """Per-shard fan-out penalty attached to produced plans."""
        return self._fanout_cost

    @property
    def planner(self) -> Planner:
        """The inner single-node planner building the global plans."""
        return self._planner

    def plan(
        self,
        rect: Rect,
        policy: ExecutionPolicy = ExecutionPolicy(),
        layout: Optional[PageLayout] = None,
    ) -> ShardedPlan:
        """Plan ``rect`` once globally, then scatter it across the shards.

        Gap merging happens *before* clipping (on the global runs), so a
        tolerated gap spanning a shard boundary behaves exactly as it
        would unsharded.
        """
        plan = self._planner.plan(rect, policy, layout)
        return scatter_plan(plan, self._shards, self._fanout_cost, layout)

    def plan_many(
        self,
        rects: Iterable[Rect],
        policy: ExecutionPolicy = ExecutionPolicy(),
        layout: Optional[PageLayout] = None,
    ) -> List[ShardedPlan]:
        """Plan a whole workload (one sharded plan per rect, same policy)."""
        return [self.plan(rect, policy, layout) for rect in rects]


def _validated_shards(shards: Sequence[Shard], key_space: int) -> Tuple[Shard, ...]:
    """Require ``shards`` to tile ``[0, key_space)`` contiguously, ascending."""
    if not shards:
        raise InvalidQueryError("shard map must contain at least one shard")
    tiled = tuple((int(lo), int(hi)) for lo, hi in shards)
    if tiled[0][0] != 0 or tiled[-1][1] != key_space - 1:
        raise InvalidQueryError(
            f"shard map must cover [0, {key_space}), got {tiled[0]}..{tiled[-1]}"
        )
    if any(hi < lo for lo, hi in tiled):
        raise InvalidQueryError(f"shards must be non-empty intervals, got {tiled}")
    for (_, prev_hi), (lo, _) in zip(tiled, tiled[1:]):
        if lo != prev_hi + 1:
            raise InvalidQueryError(
                f"shards must be contiguous ascending intervals, got {tiled}"
            )
    return tiled


def _gather_reader(
    plan: QueryPlan, layout: PageLayout, read: Callable[[int], object]
) -> Callable[[int], object]:
    """A page reader for the fragments' scans that reads exactly the
    global plan's page sequence.

    Filtering the fragments in shard order requests the global sequence
    of pages with one repeat wherever a shard boundary cuts a run inside
    a page: both clipped halves scan that page.  A request for the next
    page of the global sequence goes through ``read``; any other request
    is such a repeat and gets the page just read again, uncharged.
    """
    page_ids = layout.page_ids
    pending = (
        page_ids[position]
        for first, last in resolved_spans(plan, layout)
        for position in range(first, last + 1)
    )
    expected = next(pending, None)
    last_page = None

    def fragment_read(page_id: int) -> object:
        nonlocal expected, last_page
        if page_id == expected:
            last_page = read(page_id)
            expected = next(pending, None)
        return last_page

    return fragment_read


class ScatterGatherExecutor(Executor):
    """Executes sharded plans: one key-ordered pass, per-shard attribution.

    Construction, the buffer pool, the recorder, the shared I/O lock,
    the charged read pass and the execution report are
    :class:`~repro.engine.executor.Executor`'s.  A sharded plan runs as
    a single charged pass over the *global* plan's pages — page for page
    the sequence the single-index executor reads, which keeps the
    measured seeks/pages identical to unsharded execution — while the
    fragments' clipped runs are filtered in shard order.  Concatenating
    the fragments' records in shard order *is* global key order, because
    shards are ascending key intervals.
    """

    def execute(
        self,
        splan: ShardedPlan,
        _page_cache: Optional[dict] = None,
    ) -> ShardedRangeQueryResult:
        """Run one sharded plan and gather the per-shard results.

        ``_page_cache`` is the batch path's shared-scan state.  Each
        shard's :class:`ShardStats` carries its fragment's records and
        over-read plus the fragment's I/O replayed on its own head.
        """
        plan = splan.plan
        layout = self._layout

        def scan(read):
            fragment_read = _gather_reader(plan, layout, read)
            return [
                self._scan(
                    fragment.plan.scan_runs,
                    resolved_spans(fragment.plan, layout),
                    plan.rect,
                    fragment_read,
                )
                for fragment in splan.fragments
            ]

        started = time.perf_counter() if METRICS.enabled else 0.0
        # One canonical kind="io" span for the charged pass; the
        # per-fragment children use kind="shard" — a second accounting
        # of the same pages, excluded from Trace.io_totals exactly like
        # ShardStats is excluded from the serial totals.
        with _obs_span("scatter_execute", kind="io") as sp:
            filtered, seeks, sequential, cold = self._charged(scan, _page_cache)
            records: List[Record] = []
            per_shard = []
            for fragment, (shard_records, shard_over) in zip(splan.fragments, filtered):
                records.extend(shard_records)
                frag_seeks, frag_seq = fragment.plan._predicted_reads
                per_shard.append(
                    ShardStats(
                        shard_id=fragment.shard_id,
                        runs=fragment.plan.num_scan_runs,
                        seeks=frag_seeks,
                        sequential_reads=frag_seq,
                        records=len(shard_records),
                        over_read=shard_over,
                    )
                )
                with _obs_span(f"shard[{fragment.shard_id}]", kind="shard") as fsp:
                    fsp.set("seeks", frag_seeks)
                    fsp.set("sequential_reads", frag_seq)
                    fsp.set("records", len(shard_records))
                    fsp.set("over_read", shard_over)
            result = ShardedRangeQueryResult(
                records=records,
                runs=plan.num_scan_runs,
                seeks=seeks,
                sequential_reads=sequential,
                over_read=sum(s.over_read for s in per_shard),
                per_shard=tuple(per_shard),
                fanout_cost=splan.fanout_cost,
            )
            sp.set("fan_out", len(splan.fragments))
            self._report(
                sp, started, plan, seeks, sequential, result.over_read,
                len(records), cold,
            )
        return result

    def stream(self, splan) -> PlanStream:
        """Open a lazy page-at-a-time stream over a sharded (or bare) plan.

        Streams the *global* plan's pages in key order — the exact
        sequence :meth:`execute` charges, so a fully drained stream's
        accounting is identical to it (and to the single index), and
        record order matches the shard-ordered gather because shards
        are ascending key intervals.
        """
        return super().stream(splan.plan if isinstance(splan, ShardedPlan) else splan)

    def execute_batch(self, splans: Sequence[ShardedPlan]) -> ShardedBatchResult:
        """Run a workload of sharded plans as one key-ordered shared scan.

        The charged side is :meth:`Executor.execute_batch` itself (the
        same elevator + shared-scan policy as the single-index batch, so
        the canonical totals match it exactly).  On the shard side each
        shard serves its fragment stream with its *own* shared scan: a
        page a shard already read for an earlier query in the batch is
        free for that shard, and the per-shard totals replay each
        shard's deduplicated page stream on its own head.
        """
        batch = super().execute_batch(splans)
        layout = self._layout
        # Per shard: page positions in execution order, deduplicated (an
        # insertion-ordered dict), and the shard's per-query stats.
        shards: Dict[int, Tuple[Dict[int, None], List[ShardStats]]] = {}
        for i in batch.executed_order:
            for fragment, stats in zip(splans[i].fragments, batch.results[i].per_shard):
                positions, shares = shards.setdefault(fragment.shard_id, ({}, []))
                for first, last in resolved_spans(fragment.plan, layout):
                    positions.update(dict.fromkeys(range(first, last + 1)))
                shares.append(stats)
        per_shard = []
        for shard_id in sorted(shards):
            positions, shares = shards[shard_id]
            seeks, sequential = replay_reads((p, p) for p in positions)
            per_shard.append(
                ShardStats(
                    shard_id=shard_id,
                    runs=sum(s.runs for s in shares),
                    seeks=seeks,
                    sequential_reads=sequential,
                    records=sum(s.records for s in shares),
                    over_read=sum(s.over_read for s in shares),
                )
            )
        return ShardedBatchResult(
            results=batch.results,
            executed_order=batch.executed_order,
            total_seeks=batch.total_seeks,
            total_sequential_reads=batch.total_sequential_reads,
            total_over_read=batch.total_over_read,
            per_shard=tuple(per_shard),
            total_fan_out=sum(r.fan_out for r in batch.results),
            fanout_cost=splans[0].fanout_cost if splans else DEFAULT_FANOUT_COST,
        )
