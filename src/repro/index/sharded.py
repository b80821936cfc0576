"""``ShardedSFCIndex``: the sharded serving layer over one shared store.

The paper's distributed motivation (WSDM'16-style linear-embedding
partitioning) shards multi-dimensional data into contiguous curve-key
ranges; :mod:`repro.index.partition` computes the shard maps and this
module serves queries through them.  The architecture is
**shared-storage sharding** (the disaggregated idiom): every shard owns

* a key interval from the shard map (``equal_key_shards`` by default,
  re-cut at record quantiles by :meth:`ShardedSFCIndex.rebalance`),
* its own in-memory B+-tree write path — inserts, bulk loads and
  deletes are routed by :func:`~repro.index.partition.shard_of_key`,

while flushed pages live on one shared :class:`SimulatedDisk` with one
global :class:`~repro.engine.plan.PageLayout`: flushing walks the shards
in key order and packs pages *across* shard boundaries, which makes the
layout byte-for-byte the one the unsharded :class:`SFCIndex` builds.

The serving facade itself — updates, point lookups, flush, planning,
the :class:`~repro.api.Query`/:class:`~repro.api.Cursor`/kNN front
door, the legacy range-query signatures and online migration — is the
shared :class:`~repro.api.store.SpatialStore` implementation; this
module contributes only the sharded topology: key-routed trees,
per-shard counts, scatter planning, and snapshot/locking discipline.

Queries scatter and gather through :mod:`repro.engine.scatter`: the
:class:`~repro.engine.scatter.ShardedPlanner` clips the global plan to
per-shard fragments and the
:class:`~repro.engine.scatter.ScatterGatherExecutor` charges one
key-ordered I/O pass (identical to unsharded execution — the
shard-transparency the differential suite proves) while it filters
each fragment inline, in shard order.

The index is safe to hammer from many threads: a single lock guards the
write paths and the layout/epoch swap, query snapshots are taken under
it, and plans are cached under a key that includes the layout *epoch*,
so a planner racing a reflush can never poison the cache with a
stale-layout plan.
"""

from __future__ import annotations

import threading
from typing import List, Optional, Sequence, Tuple

from ..api.store import SpatialStore, pack_layout
from ..curves.base import SpaceFillingCurve
from ..devtools.annotations import guarded_by
from ..engine.cache import PlanCache
from ..engine.cost import DEFAULT_COST_MODEL, CostModel
from ..engine.executor import Record
from ..engine.plan import PageLayout
from ..engine.scatter import (
    DEFAULT_FANOUT_COST,
    ScatterGatherExecutor,
    Shard,
    ShardedPlanner,
    scatter_plan,
)
from ..errors import InvalidQueryError
from ..geometry import Rect
from ..storage.bplustree import BPlusTree
from ..storage.buffer import BufferPool
from ..storage.disk import SimulatedDisk
from .partition import balanced_shards, equal_key_shards, shard_of_key

__all__ = ["ShardedSFCIndex"]


class ShardedSFCIndex(SpatialStore):
    """A spatial index sharded into contiguous curve-key intervals.

    Drop-in for :class:`~repro.index.spatial.SFCIndex` on the query
    side — the whole :class:`~repro.api.store.SpatialStore` surface,
    with ``range_query`` / ``range_query_batch`` returning results
    whose records and serial I/O totals are *identical* to the single
    index — plus per-shard write paths, scatter–gather execution and
    per-shard attribution (with a simulated parallel cost model) on top.

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
        if page_capacity < 1:
            raise InvalidQueryError(f"page_capacity must be >= 1, got {page_capacity}")
        self._curve = curve  # guarded-by: _mutex (swapped by migration cutover)
        self._page_capacity = page_capacity
        self._tree_order = tree_order
        self._cost_model = cost_model if cost_model is not None else DEFAULT_COST_MODEL
        self._fanout_cost = fanout_cost
        self._recorder = recorder
        shard_map = (
            list(shards) if shards is not None else equal_key_shards(curve, num_shards)
        )
        # The SpatialStore mutex (re-entrant): every mutation, snapshot
        # and point lookup serializes on it, and every field below that
        # carries a guarded-by annotation is protected by it — the
        # lock-discipline analyzer (`repro lint`) enforces the pairing.
        self._mutex = threading.RLock()
        # One I/O lock shared by every executor generation: a query that
        # snapshotted the previous executor must still serialize its
        # charged reads with queries on the new one (same disk), and
        # pool clears during a layout swap happen under it — a
        # previous-generation query may be mid-read through the pool.
        self._io_lock = threading.Lock()
        self._planner = ShardedPlanner(  # guarded-by: _mutex
            curve,
            shard_map,
            cost_model=self._cost_model,
            fanout_cost=fanout_cost,
            recorder=recorder,
        )
        # guarded-by: _mutex
        self._trees = [BPlusTree(order=tree_order) for _ in self._planner.shards]
        self._counts = [0] * len(self._planner.shards)  # guarded-by: _mutex
        self._disk = SimulatedDisk()
        self._pool = BufferPool(self._disk, buffer_pages) if buffer_pages else None
        self._plan_cache = PlanCache(plan_cache_size) if plan_cache_size else None
        self._layout: Optional[PageLayout] = None  # guarded-by: _mutex
        # guarded-by: _mutex
        self._executor: Optional[ScatterGatherExecutor] = None
        self._epoch = 0  # guarded-by: _mutex
        self._version = 0  # guarded-by: _mutex
        self._init_durability(durable_path, durable_ops, durable_sync)

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def shards(self) -> Tuple[Shard, ...]:
        """The shard map (inclusive key intervals, ascending)."""
        with self._mutex:
            return self._planner.shards

    @property
    def num_shards(self) -> int:
        """Number of shards in the map."""
        with self._mutex:
            return len(self._planner.shards)

    @property
    def _migration_lock(self):
        """The lock the migration protocol's final attempt holds — the
        store mutex itself (re-entrant), which is why the analyzer's
        alias map resolves ``_migration_lock`` to ``_mutex``."""
        return self._mutex

    @property
    def shard_loads(self) -> Tuple[int, ...]:
        """Record count per shard (the balance ``rebalance`` restores)."""
        with self._mutex:
            return tuple(self._counts)

    def __len__(self) -> int:
        with self._mutex:
            return sum(self._counts)

    def shard_of(self, point: Sequence[int]) -> int:
        """Id of the shard serving ``point``'s curve key."""
        with self._mutex:
            return shard_of_key(self._planner.shards, self._curve.index(point))

    # ------------------------------------------------------------------
    # Storage primitives (the SpatialStore contract, key-routed)
    # ------------------------------------------------------------------
    @guarded_by("_mutex")
    def _tree_for_key(self, key: int) -> BPlusTree:
        return self._trees[shard_of_key(self._planner.shards, key)]

    @guarded_by("_mutex")
    def _count_delta(self, key: int, delta: int) -> None:
        self._counts[shard_of_key(self._planner.shards, key)] += delta

    @guarded_by("_mutex")
    def _flush_entries(self):
        """Every shard's records in shard order — which is global key
        order, since shards are ascending intervals — so pages pack
        *across* shard boundaries exactly like the single index's."""
        return (
            (key, record)
            for tree in self._trees
            for key, bucket in tree.items()
            for record in bucket
        )

    def _make_executor(self, layout: PageLayout) -> ScatterGatherExecutor:
        return ScatterGatherExecutor(
            self._disk,
            layout,
            io_lock=self._io_lock,
            pool=self._pool,
            recorder=self._recorder,
        )

    @guarded_by("_mutex")
    def _ensure_flushed(self) -> ScatterGatherExecutor:
        """Executor for the current layout (callers hold the mutex)."""
        if self._layout is None or self._executor is None:
            self.flush()
        return self._executor

    @guarded_by("_mutex")
    def _durable_state(self) -> dict:
        """Construction parameters for ``recover()`` — the single
        store's, plus the exact shard map so recovery rebuilds the
        same routes and per-shard attribution (callers hold the mutex)."""
        state = super()._durable_state()
        state["kind"] = "sharded"
        state["shards"] = [[int(lo), int(hi)] for lo, hi in self._planner.shards]
        return state

    def _snapshot(self):
        """Atomic (planner, layout, executor, epoch) for one generation.

        Taken under the lock so planning and execution never mix layout
        generations; everything expensive then runs outside the lock —
        a consistent snapshot stays readable after a reflush because the
        simulated disk is append-only.
        """
        with self._mutex:
            self._ensure_flushed()
            return self._planner, self._layout, self._executor, self._epoch

    def _merge_snapshot(self, plans, planner, layout: PageLayout):
        """Merge per-rect sharded plans into one union plan, re-scattered
        across the snapshot's shard map so fragments and fan-out pricing
        reflect the deduplicated union scan."""
        from ..api.store import merge_plans

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
        Returns the new shard map.
        """
        with self._mutex:
            target = num_shards if num_shards is not None else self.num_shards
            self._log_durable(("rebalance", target))
            entries: List[Tuple[int, List[Record]]] = []
            keys: List[int] = []
            for tree in self._trees:
                for key, bucket in tree.items():
                    entries.append((key, bucket))
                    keys.extend([key] * len(bucket))
            if keys:
                shard_map = balanced_shards(keys, target, self._curve.size)
            else:
                shard_map = equal_key_shards(self._curve, target)
            self._planner = ShardedPlanner(
                self._curve,
                shard_map,
                cost_model=self._cost_model,
                fanout_cost=self._fanout_cost,
                recorder=self._recorder,
            )
            self._trees = [BPlusTree(order=self._tree_order) for _ in shard_map]
            self._counts = [0] * len(shard_map)
            for key, bucket in entries:
                shard_id = shard_of_key(shard_map, key)
                self._trees[shard_id].insert(key, bucket)
                self._counts[shard_id] += len(bucket)
            self._invalidate_layout()
            if self._plan_cache is not None:
                self._plan_cache.invalidate()
            return self._planner.shards

    # ------------------------------------------------------------------
    # Online migration (the adaptive control plane's data-plane hooks)
    # ------------------------------------------------------------------
    def _migration_snapshot(self) -> Tuple[int, List[Tuple[int, Record]]]:
        """A consistent ``(version, [(key, record)])`` view of the contents.

        Taken under the index lock, walking :meth:`_flush_entries` —
        shard order, which is global key order — so the snapshot is
        exactly what a flush would pack.
        """
        with self._mutex:
            return self._version, list(self._flush_entries())

    def _migration_cutover(
        self,
        curve: SpaceFillingCurve,
        keyed: List[Tuple[int, Record]],
        expected_version: int,
    ) -> bool:
        """Atomically install records re-keyed under ``curve``.

        ``keyed`` must be sorted ascending by new key.  Under the lock:
        refuses (False) when writes landed since the snapshot; otherwise
        every record is re-routed through the *current* shard map (key
        intervals are curve-independent — the key space size is
        unchanged), the shadow layout is packed across shard boundaries
        by the same :func:`~repro.api.store.pack_layout` a fresh
        bulk load flushes through — which is what keeps the migrated
        index shard-transparent — and the epoch bump retires every
        cached plan of the old generation.
        """
        with self._mutex:
            if self._version != expected_version:
                return False
            self._log_migrate(curve)
            shard_map = self._planner.shards
            trees = [BPlusTree(order=self._tree_order) for _ in shard_map]
            counts = [0] * len(shard_map)
            for key, record in keyed:
                shard_id = shard_of_key(shard_map, key)
                tree = trees[shard_id]
                bucket = tree.get(key)
                if bucket is None:
                    tree.insert(key, [record])
                else:
                    bucket.append(record)
                counts[shard_id] += 1
            layout = pack_layout(self._disk, self._page_capacity, keyed)
            self._curve = curve
            self._planner = ShardedPlanner(
                curve,
                shard_map,
                cost_model=self._cost_model,
                fanout_cost=self._fanout_cost,
                recorder=self._recorder,
            )
            self._trees = trees
            self._counts = counts
            self._install_layout(layout)
            return True
