"""``ShardedSFCIndex``: the sharded serving layer over one shared store.

The paper's distributed motivation (WSDM'16-style linear-embedding
partitioning) shards multi-dimensional data into contiguous curve-key
ranges; :mod:`repro.index.partition` computes the shard maps and this
module serves queries through them.  The architecture is
**shared-storage sharding** (the disaggregated idiom): every shard owns

* a key interval from the shard map (``equal_key_shards`` by default,
  re-cut at record quantiles by :meth:`ShardedSFCIndex.rebalance`),
* its own in-memory B+-tree write path — inserts, bulk loads and
  deletes are routed by key interval (a bulk load in one vectorized
  lookup),

while flushed pages live on one shared :class:`SimulatedDisk` with one
global :class:`~repro.engine.plan.PageLayout`: flushing walks the shards
in key order and packs pages *across* shard boundaries, which makes the
layout byte-for-byte the one the unsharded :class:`SFCIndex` builds.

The serving facade itself — updates, point lookups, flush, planning,
the :class:`~repro.api.Query`/:class:`~repro.api.Cursor`/kNN front
door, the legacy range-query signatures and online migration — and the
storage topology under it (key-routed per-interval trees and counts,
snapshots, the migration cutover, the mutex and I/O lock) are the
shared :class:`~repro.api.store.SpatialStore` implementation, which
also serves :class:`SFCIndex` as a one-interval map.  This module
contributes the multi-interval shard map and its serving engine: scatter
planning, scatter-gather execution, shard introspection and
:meth:`ShardedSFCIndex.rebalance`.

Queries scatter and gather through :mod:`repro.engine.scatter`: the
:class:`~repro.engine.scatter.ShardedPlanner` clips the global plan to
per-shard fragments and the
:class:`~repro.engine.scatter.ScatterGatherExecutor` charges one
key-ordered I/O pass (identical to unsharded execution — the
shard-transparency the differential suite proves) while it filters
each fragment inline, in shard order.

The index is safe to hammer from many threads under the store's one
lock model: the mutex guards the write paths, the shard map and the
layout/epoch swap, query snapshots are taken under it, and plans are
cached under a key that includes the layout *epoch*, so a planner
racing a reflush can never poison the cache with a stale-layout plan.
"""

from __future__ import annotations

from typing import Optional, Sequence, Tuple

from ..api.store import SpatialStore, merge_plans
from ..curves.base import SpaceFillingCurve
from ..devtools.annotations import guarded_by
from ..engine.cost import CostModel
from ..engine.plan import PageLayout
from ..engine.scatter import (
    DEFAULT_FANOUT_COST,
    ScatterGatherExecutor,
    Shard,
    ShardedPlanner,
    scatter_plan,
)
from ..storage.bplustree import BPlusTree
from .partition import balanced_shards, equal_key_shards

__all__ = ["ShardedSFCIndex"]


class ShardedSFCIndex(SpatialStore):
    """A spatial index sharded into contiguous curve-key intervals.

    Drop-in for :class:`~repro.index.spatial.SFCIndex` on the query
    side — the whole :class:`~repro.api.store.SpatialStore` surface,
    with ``range_query`` / ``range_query_batch`` returning results
    whose records and serial I/O totals are *identical* to the single
    index — plus scatter–gather execution, per-shard attribution (with
    a simulated parallel cost model), shard introspection and
    :meth:`rebalance` on top.

    Parameters
    ----------
    curve:
        Any :class:`~repro.curves.base.SpaceFillingCurve`.
    num_shards:
        How many equal-key-range shards to cut (ignored when ``shards``
        is given).
    page_capacity, tree_order, cost_model, plan_cache_size:
        As on :class:`SFCIndex`.
    shards:
        Explicit shard map — contiguous inclusive key intervals tiling
        ``[0, curve.size)``.
    fanout_cost:
        Simulated per-shard contact cost attached to plans and results.
    buffer_pages:
        LRU buffer-pool capacity in pages over the shared store (0
        disables the pool).  With a pool, executions also report cold
        misses — the seeks that reached the disk — which is what the
        adaptive layer judges curve migrations on.
    recorder:
        Optional :class:`~repro.adaptive.WorkloadRecorder` observing
        planned and executed queries (thread-safe, like the index).
    durable_path, durable_sync, durable_ops:
        As on :class:`~repro.index.spatial.SFCIndex`.  Durability is
        shard-transparent: the WAL logs logical point operations and
        the checkpoint manifest records the shard map, so recovery
        rebuilds the same shards, routes and layout.
    """

    def __init__(
        self,
        curve: SpaceFillingCurve,
        num_shards: int = 4,
        page_capacity: int = 64,
        tree_order: int = 32,
        cost_model: Optional[CostModel] = None,
        plan_cache_size: int = 256,
        shards: Optional[Sequence[Shard]] = None,
        fanout_cost: float = DEFAULT_FANOUT_COST,
        buffer_pages: int = 0,
        recorder=None,
        durable_path=None,
        durable_sync: bool = True,
        durable_ops=None,
    ):
        self._fanout_cost = fanout_cost
        super().__init__(
            curve,
            shards if shards is not None else equal_key_shards(curve, num_shards),
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

    @guarded_by("_mutex")
    def _make_planner(self, curve: SpaceFillingCurve) -> ShardedPlanner:
        return ShardedPlanner(
            curve,
            self._shards,
            cost_model=self._cost_model,
            fanout_cost=self._fanout_cost,
            recorder=self._recorder,
        )

    def _make_executor(self, layout: PageLayout) -> ScatterGatherExecutor:
        return ScatterGatherExecutor(
            self._disk,
            layout,
            pool=self._pool,
            recorder=self._recorder,
            io_lock=self._io_lock,
        )

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def shards(self) -> Tuple[Shard, ...]:
        """The shard map (inclusive key intervals, ascending)."""
        with self._mutex:
            return self._shards

    @property
    def num_shards(self) -> int:
        """Number of shards in the map."""
        with self._mutex:
            return len(self._shards)

    @property
    def shard_loads(self) -> Tuple[int, ...]:
        """Record count per shard (the balance ``rebalance`` restores)."""
        with self._mutex:
            return tuple(self._counts)

    def shard_of(self, point: Sequence[int]) -> int:
        """Id of the shard serving ``point``'s curve key."""
        with self._mutex:
            return self._shard_of_key(self._curve.index(point))

    @guarded_by("_mutex")
    def _durable_state(self) -> dict:
        """Construction parameters for ``recover()`` — the single
        store's, plus the exact shard map so recovery rebuilds the
        same routes and per-shard attribution (callers hold the mutex)."""
        state = super()._durable_state()
        state["kind"] = "sharded"
        state["shards"] = [[int(lo), int(hi)] for lo, hi in self._shards]
        return state

    def _merge_snapshot(self, plans, planner, layout: PageLayout):
        """Merge per-rect sharded plans into one union plan, re-scattered
        across the snapshot's shard map so fragments and fan-out pricing
        reflect the deduplicated union scan."""
        merged = merge_plans([splan.plan for splan in plans], layout)
        return scatter_plan(merged, planner.shards, planner.fanout_cost, layout)

    # ------------------------------------------------------------------
    # Rebalancing
    # ------------------------------------------------------------------
    def rebalance(self, num_shards: Optional[int] = None) -> Tuple[Shard, ...]:
        """Re-cut the shard map at record-count quantiles and re-route.

        Uses :func:`~repro.index.partition.balanced_shards` over every
        stored key (weighted by record count) so each shard serves about
        the same load; an empty index falls back to equal key ranges.
        The new map is computed — and a bad ``num_shards`` refused —
        before the operation is logged, so the WAL never holds a
        rebalance that replay would refuse.  Returns the new shard map.
        """
        with self._mutex:
            target = num_shards if num_shards is not None else len(self._shards)
            entries = list(self._flush_entries())
            keys = [key for key, _ in entries]
            if keys:
                shard_map = balanced_shards(keys, target, self._curve.size)
            else:
                shard_map = equal_key_shards(self._curve, target)
            self._log_durable(("rebalance", target))
            self._shards = tuple(shard_map)  # guarded-by: _mutex
            self._planner = self._make_planner(self._curve)  # guarded-by: _mutex
            # guarded-by: _mutex
            self._trees = [BPlusTree(order=self._tree_order) for _ in shard_map]
            self._counts = [0] * len(shard_map)  # guarded-by: _mutex
            self._append_records(entries, self._route(keys))
            self._invalidate_layout()
            if self._plan_cache is not None:
                self._plan_cache.invalidate()
            return self._shards
