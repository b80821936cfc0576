"""``SFCIndex``: a multi-dimensional index over any registered curve.

This is the substrate the paper motivates but does not ship: points are
mapped to 1-D keys by a space filling curve, stored in a B+-tree for
updates and point lookups, and flushed to a simulated disk in key order
for scans.

The serving facade — updates, point lookups, flush, planning, EXPLAIN,
range queries, the composable :class:`~repro.api.Query` front door with
streaming :class:`~repro.api.Cursor` results and kNN, and online
migration — and the storage topology behind it live on the shared
:class:`~repro.api.store.SpatialStore` base (one implementation for this
class and :class:`~repro.index.sharded.ShardedSFCIndex`).  An
``SFCIndex`` is the store whose shard map is the single interval
``(0, curve.size - 1)``: one B+-tree, one record count, and the same
re-entrant mutex and I/O lock as every store, so it is thread-safe.
This module only picks its serving engine — a plain
:class:`~repro.engine.planner.Planner` and an
:class:`~repro.engine.executor.Executor` sharing the store's I/O lock.

Range queries go through the :mod:`repro.engine` planner/executor
split: :meth:`SFCIndex.plan` produces an immutable
:class:`~repro.engine.plan.QueryPlan` (the query's exact key runs,
their page spans and the predicted seek count — the paper's clustering
number whenever runs do not share pages, which the integration tests
assert), :meth:`SFCIndex.explain` renders it, and the executor turns it
into page reads.  Plans are memoized in an LRU
:class:`~repro.engine.cache.PlanCache` keyed by ``(epoch, curve, rect,
policy)``; :meth:`SFCIndex.range_query_batch` executes whole workloads
in key order to trade inter-query seeks for sequential reads.
:meth:`SFCIndex.range_query` remains the one-call facade with the
historical signature.
"""

from __future__ import annotations

from typing import Optional

from ..api.store import SpatialStore, keyed_records, pack_layout
from ..curves.base import SpaceFillingCurve
from ..engine.cost import CostModel
from ..engine.executor import Executor, RangeQueryResult, Record
from ..engine.plan import PageLayout
from ..engine.planner import Planner

__all__ = ["Record", "RangeQueryResult", "SFCIndex", "keyed_records", "pack_layout"]


class SFCIndex(SpatialStore):
    """A spatial index keyed by a space filling curve.

    The :class:`~repro.api.store.SpatialStore` over one key interval,
    served by the single-node planner and executor.  Thread-safe: every
    mutation and snapshot serializes on the store mutex.

    Parameters
    ----------
    curve:
        Any :class:`~repro.curves.base.SpaceFillingCurve`.
    page_capacity:
        Records per simulated disk page.
    tree_order:
        Fan-out of the in-memory B+-tree.
    buffer_pages:
        LRU buffer-pool capacity in pages (0 disables the pool).
    cost_model:
        Prices attached to plans produced by this index (defaults to the
        shared :data:`~repro.engine.cost.DEFAULT_COST_MODEL`).
    plan_cache_size:
        Capacity of the plan cache (0 disables plan caching).
    recorder:
        Optional :class:`~repro.adaptive.WorkloadRecorder`: the planner
        reports every built plan, the executor every executed query —
        the hooks the adaptive control plane observes live traffic
        through.
    durable_path:
        Directory for durable backing (WAL + checkpoints).  When set,
        every mutation is write-ahead logged before it is applied and
        :func:`~repro.storage.durable.recover` can rebuild the store
        after a crash.  The directory must not already hold a durable
        store — recover that instead.
    durable_sync:
        Fsync the WAL on every logged operation (the default).  False
        trades the per-operation durability guarantee for throughput:
        a crash may lose a suffix of acknowledged writes, never a torn
        middle.
    durable_ops:
        Filesystem seam for the durable tier (fault injection hook).
    """

    def __init__(
        self,
        curve: SpaceFillingCurve,
        page_capacity: int = 64,
        tree_order: int = 32,
        buffer_pages: int = 0,
        cost_model: Optional[CostModel] = None,
        plan_cache_size: int = 256,
        recorder=None,
        durable_path=None,
        durable_sync: bool = True,
        durable_ops=None,
    ):
        super().__init__(
            curve,
            ((0, curve.size - 1),),
            page_capacity=page_capacity,
            tree_order=tree_order,
            buffer_pages=buffer_pages,
            cost_model=cost_model,
            plan_cache_size=plan_cache_size,
            recorder=recorder,
            durable_path=durable_path,
            durable_sync=durable_sync,
            durable_ops=durable_ops,
        )

    def _make_planner(self, curve: SpaceFillingCurve) -> Planner:
        return Planner(curve, cost_model=self._cost_model, recorder=self._recorder)

    def _make_executor(self, layout: PageLayout) -> Executor:
        return Executor(
            self._disk,
            layout,
            pool=self._pool,
            recorder=self._recorder,
            io_lock=self._io_lock,
        )
