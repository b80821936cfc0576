"""``repro.engine`` — query planning split from query execution.

The paper's thesis is that the clustering number *predicts* a range
query's seek cost before any I/O happens.  This subsystem turns that into
an architecture, the way database engines separate a planner from an
executor:

* :mod:`~repro.engine.cost` — the :class:`CostModel` pricing seeks and
  sequential reads, shared by estimated and measured costs;
* :mod:`~repro.engine.plan` — immutable :class:`QueryPlan` objects (key
  runs, page spans, ``estimated_seeks``/``estimated_cost()``) plus the
  :class:`ExecutionPolicy` (gap tolerance) and :class:`PageLayout`;
* :mod:`~repro.engine.planner` — the :class:`Planner`, built from its
  curve alone: pure computation with a curve-aware vectorized
  run-construction fast path, and per-window-size expected seeks
  (:meth:`~Planner.expected_seeks`, backed by the translation-sweep
  kernel) for cost estimation without planning;
* :mod:`~repro.engine.cache` — an LRU :class:`PlanCache` keyed by
  ``(curve, rect, policy)`` so repeated workloads stop re-planning;
* :mod:`~repro.engine.executor` — the :class:`Executor` running plans
  against the paged storage, including key-ordered
  :meth:`~Executor.execute_batch` for whole workloads;
* :mod:`~repro.engine.scatter` — the sharded serving half: a
  :class:`ShardedPlanner` clipping global plans into per-shard
  fragments (priced with the cost model plus a per-shard fan-out
  penalty) and a
  :class:`ScatterGatherExecutor` — an :class:`Executor` whose one
  key-ordered I/O pass keeps sharded execution observationally
  identical to single-index execution while it scans each shard's
  fragment inline and attributes records and I/O per shard.

:class:`repro.SFCIndex` wires the single-node pieces together and
:class:`repro.ShardedSFCIndex` the sharded ones; use the engine directly
to inspect plans, compare curves by estimated cost, or drive batched
workloads.
"""

from .cache import PlanCache, PlanCacheStats
from .cost import DEFAULT_COST_MODEL, CostModel
from .executor import BatchResult, Executor, RangeQueryResult, Record
from .plan import ExecutionPolicy, PageLayout, QueryPlan
from .planner import Planner
from .scatter import (
    DEFAULT_FANOUT_COST,
    ScatterGatherExecutor,
    ShardFragment,
    ShardStats,
    ShardedBatchResult,
    ShardedPlan,
    ShardedPlanner,
    ShardedRangeQueryResult,
)

__all__ = [
    "BatchResult",
    "CostModel",
    "DEFAULT_COST_MODEL",
    "DEFAULT_FANOUT_COST",
    "ExecutionPolicy",
    "Executor",
    "PageLayout",
    "PlanCache",
    "PlanCacheStats",
    "Planner",
    "QueryPlan",
    "RangeQueryResult",
    "Record",
    "ScatterGatherExecutor",
    "ShardFragment",
    "ShardStats",
    "ShardedBatchResult",
    "ShardedPlan",
    "ShardedPlanner",
    "ShardedRangeQueryResult",
]
