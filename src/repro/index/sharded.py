"""``ShardedSFCIndex``: the sharded serving layer over one shared store.

The paper's distributed motivation (WSDM'16-style linear-embedding
partitioning) shards multi-dimensional data into contiguous curve-key
ranges, so that a range query contacts only the shards its key runs
intersect; :mod:`repro.index.partition` computes the shard maps and
this module serves queries through them.  A shard is a key interval
of the map (``equal_key_shards`` by default, re-cut at record
quantiles by :meth:`ShardedSFCIndex.rebalance`) that the planner clips
plans to — a property of the query plan, not of how records are
stored.

The records, the write path and the flushed pages are the shared
:class:`~repro.api.store.SpatialStore` implementation, the same one
:class:`SFCIndex` serves through: one pair of sorted key and record
columns, one record count, one :class:`SimulatedDisk` and one global
:class:`~repro.engine.plan.PageLayout`, so the layout is byte-for-byte
the one the unsharded index builds.  So are the serving facade —
updates, point lookups, flush, planning, the
:class:`~repro.api.Query`/:class:`~repro.api.Cursor`/kNN front door,
the legacy range-query signatures and online migration — snapshots,
the migration cutover, the mutex and the I/O lock.  This module
contributes the shard map and its serving engine: scatter planning,
scatter-gather execution, shard introspection and
:meth:`ShardedSFCIndex.rebalance`.

Queries scatter and gather through :mod:`repro.engine.scatter`: the
:class:`~repro.engine.scatter.ShardedPlanner` clips the global plan to
per-shard fragments and the
:class:`~repro.engine.scatter.ScatterGatherExecutor` charges one
key-ordered I/O pass (identical to unsharded execution — the
shard-transparency the differential suite proves) while it scans
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
from ..engine.plan import PageLayout
from ..engine.scatter import (
    ScatterGatherExecutor,
    Shard,
    ShardedPlanner,
    scatter_plan,
)
from .partition import balanced_shards, equal_key_shards, shard_of_key

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
    page_capacity, plan_cache_size:
        As on :class:`SFCIndex`.
    shards:
        Explicit shard map — contiguous inclusive key intervals tiling
        ``[0, curve.size)``.
    buffer_pages:
        LRU buffer-pool capacity in pages over the shared store (0
        disables the pool).
    recorder:
        Optional :class:`~repro.adaptive.WorkloadRecorder` observing
        the shape of every executed query (thread-safe, like the
        index).
    durable_path, durable_sync, durable_ops:
        As on :class:`~repro.index.spatial.SFCIndex`.  Durability is
        shard-transparent: the WAL logs logical point operations and
        the checkpoint manifest records the shard map, so recovery
        rebuilds the same shards and layout.
    """

    def __init__(
        self,
        curve: SpaceFillingCurve,
        num_shards: int = 4,
        page_capacity: int = 64,
        plan_cache_size: int = 256,
        shards: Optional[Sequence[Shard]] = None,
        buffer_pages: int = 0,
        recorder=None,
        durable_path=None,
        durable_sync: bool = True,
        durable_ops=None,
    ):
        if shards is None:
            shards = equal_key_shards(curve, num_shards)
        # Set before the base constructor, which builds the planner from
        # it; the planner validates it.
        self._shards = tuple((int(lo), int(hi)) for lo, hi in shards)  # guarded-by: _mutex
        super().__init__(
            curve,
            page_capacity=page_capacity,
            buffer_pages=buffer_pages,
            plan_cache_size=plan_cache_size,
            recorder=recorder,
            durable_path=durable_path,
            durable_sync=durable_sync,
            durable_ops=durable_ops,
        )

    @guarded_by("_mutex")
    def _make_planner(self, curve: SpaceFillingCurve) -> ShardedPlanner:
        return ShardedPlanner(curve, self._shards)

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
        """Record count per shard (the balance ``rebalance`` restores):
        the current key column's positions of each shard's first and
        last key, from one :meth:`~repro.engine.plan.PageLayout.bounds`
        search, which clamps past int64."""
        with self._mutex:
            lo, hi = self._current_columns()[0].bounds(self._shards)
            return tuple(end - start for start, end in zip(lo, hi))

    def shard_of(self, point: Sequence[int]) -> int:
        """Id of the shard serving ``point``'s curve key."""
        with self._mutex:
            return shard_of_key(self._shards, self._curve.index(point))

    @guarded_by("_mutex")
    def _durable_state(self) -> dict:
        """Construction parameters for ``recover()`` — the single
        store's, plus the exact shard map so recovery rebuilds the
        same per-shard attribution (callers hold the mutex)."""
        state = super()._durable_state()
        state["kind"] = "sharded"
        state["shards"] = [[int(lo), int(hi)] for lo, hi in self._shards]
        return state

    def _merge_snapshot(self, plans, planner, layout: PageLayout):
        """Merge per-rect sharded plans into one union plan, re-scattered
        across the snapshot's shard map so fragments and fan-out pricing
        reflect the deduplicated union scan."""
        merged = merge_plans([splan.plan for splan in plans], layout)
        return scatter_plan(merged, planner.shards, layout)

    # ------------------------------------------------------------------
    # Rebalancing
    # ------------------------------------------------------------------
    def rebalance(self, num_shards: Optional[int] = None) -> Tuple[Shard, ...]:
        """Re-cut the shard map at record-count quantiles.

        Uses :func:`~repro.index.partition.balanced_shards` over the
        current key column (one key per record) so each shard serves
        about the same load; an empty index falls back to equal key
        ranges.
        The new map is computed — and a bad ``num_shards`` refused —
        before the operation is logged, so the WAL never holds a
        rebalance that replay would refuse.  No record moves: the map
        changes only how plans are clipped and attributed.  Returns the
        new shard map.
        """
        with self._mutex:
            target = num_shards if num_shards is not None else len(self._shards)
            keys = self._current_columns()[0].keys
            if len(keys):
                shard_map = balanced_shards(keys, target, self._curve.size)
            else:
                shard_map = equal_key_shards(self._curve, target)
            self._log_durable(("rebalance", target))
            self._shards = tuple(shard_map)
            self._planner = self._make_planner(self._curve)
            self._invalidate_layout()
            if self._plan_cache is not None:
                self._plan_cache.invalidate()
            return self._shards
