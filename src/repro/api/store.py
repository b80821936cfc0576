"""``SpatialStore``: the one front door every index serves through.

Before this module, :class:`~repro.index.spatial.SFCIndex` and
:class:`~repro.index.sharded.ShardedSFCIndex` each carried their own
copy of the serving facade — insert/delete/bulk-load, point queries,
flush, planning, EXPLAIN, range queries, migration — and the two kept
drifting.  ``SpatialStore`` hoists that facade into one abstract base:

* **one storage topology** — the store's sorted key column and record
  column (the *base*) are its only ordered copy of the records, with
  one write delta of the keys written since; a B+-tree maps each key to
  its bucket for :meth:`insert`, :meth:`delete` and :meth:`point_query`.
  A sharded store's shard map is key intervals its planner clips plans
  to, not a second way to store records;
* **one lock model** — a re-entrant ``_mutex`` and a shared
  ``_io_lock`` created by the constructor, so every store is
  thread-safe under the same discipline;
* **one write path** — :meth:`insert` / :meth:`bulk_load` /
  :meth:`delete` key points under the store's mutex, file records into
  the one tree (a bulk load keyed in one vectorized call, sorted by key
  and filed with one tree insert per distinct key) and note each key
  they changed, with its bucket, in the write delta, so ingestion
  semantics cannot diverge;
* **one flush protocol** — :meth:`flush` packs the current columns
  (:meth:`_current_columns`): the base with the run of each noted key
  replaced by its bucket, or the base as it is when no key was noted;
  every flush ends in :func:`pack_columns`, and the layout is installed
  via the epoch-bumping :meth:`_install_layout` (the sharded layer's
  byte-identical-layout guarantee rests on this single page-building
  rule); a layout is derived state, so flushing never writes the WAL,
  and a checkpoint, a migration snapshot, ``rebalance`` and
  ``shard_loads`` read the same columns a flush packs;
* **one query surface** — :meth:`plan` / :meth:`explain` /
  :meth:`range_query` / :meth:`range_query_batch` remain, now thin
  facades over the composable front door: :meth:`execute` runs a
  :class:`~repro.api.query.Query` (multi-rect unions, predicates,
  limits, projections), :meth:`cursor` streams one lazily with
  O(page) peak residency, and :meth:`knn` answers nearest-neighbour
  queries by expanding curve-range search;
* **one point-lookup rule** — :meth:`point_query` is implemented once,
  so single and sharded stores report identical (zero-I/O) seek
  accounting for point lookups.

Subclasses pick only the serving engine: :meth:`~SpatialStore._make_planner`
and :meth:`~SpatialStore._make_executor`.
"""

from __future__ import annotations

import abc
import gc
import threading
from contextlib import contextmanager
from typing import Any, Dict, Iterable, Iterator, List, Optional, Sequence, Tuple, Union

import numpy as np

from ..core.runs import merge_runs_with_gaps
from ..curves.base import SpaceFillingCurve
from ..curves.registry import make_curve
from ..devtools.annotations import guarded_by
from ..engine.cache import PlanCache
from ..engine.executor import Page, Record
from ..engine.plan import _INT64_MAX, ExecutionPolicy, PageLayout, QueryPlan, key_column
from ..errors import InvalidQueryError, OutOfUniverseError, StorageError
from ..geometry import Rect
from ..obs.trace import span as _obs_span
from ..storage.bplustree import BPlusTree
from ..storage.buffer import BufferPool
from ..storage.disk import SimulatedDisk
from .cursor import Cursor, QueryResult
from .query import Query, RectUnion

__all__ = ["ANY", "SpatialStore", "pack_columns", "merge_plans"]


class _AnyPayload:
    """Type of the :data:`ANY` sentinel (singleton)."""

    __slots__ = ()

    def __repr__(self) -> str:
        return "ANY"


#: Match-any-payload sentinel: ``delete(point)`` removes the first
#: record at ``point`` regardless of payload.  A distinct singleton —
#: not ``None`` — so records stored *with* ``payload=None`` can be
#: targeted specifically via ``delete(point, None)``.
ANY = _AnyPayload()

def _curve_spec(curve: SpaceFillingCurve) -> Tuple[str, int, int]:
    """``(name, side, dim)`` — enough to rebuild ``curve`` from the registry.

    Durable stores persist curves by this spec (in WAL header and
    migrate frames and in checkpoint manifests), so a curve configured
    beyond what its registry entry reconstructs is refused up front
    rather than silently recovered into a different curve.
    """
    spec = (curve.name, curve.side, curve.dim)
    if make_curve(*spec) != curve:
        raise StorageError(
            f"curve {curve!r} is not reconstructible from its registry spec "
            f"{spec!r}; durable stores need registry-reconstructible curves"
        )
    return spec


#: Makes reading and switching the collector one step (:func:`_collector_paused`).
_COLLECTOR_SWITCH = threading.Lock()


@contextmanager
def _collector_paused() -> Iterator[None]:
    """Python's cyclic garbage collector held off for the block, and put
    back as it was on every exit.

    A bulk load allocates a record per point and a bucket per distinct
    key, and none of it is garbage, so the collections its allocations
    would trigger free nothing: a 50,000-point load ran 202 of them.
    The pause defers them, for the whole process, until the block ends,
    and the first allocation after it runs one young collection over
    what the block allocated.  A collector the caller had disabled stays
    disabled.

    The switch is the process's, shared by loads in several threads:
    the load that finds it enabled enables it again as it ends, and a
    load that starts inside that pause leaves it.  Reading and switching
    it are one step under ``_COLLECTOR_SWITCH``, or a load could read
    "disabled" inside another's pause and switch the collector off
    after that pause ended, for good.  A thread that disables the
    collector while a load runs finds it enabled once the load ends.
    """
    with _COLLECTOR_SWITCH:
        enabled = gc.isenabled()
        gc.disable()
    try:
        yield
    finally:
        if enabled:
            with _COLLECTOR_SWITCH:
                gc.enable()


def _keyed_arrivals(
    curve: SpaceFillingCurve,
    points: Iterable[Sequence[int]],
    payloads: Optional[Iterable[Any]],
) -> Tuple[np.ndarray, List[Tuple[int, ...]], List[Any]]:
    """Each point's key under ``curve``, its cell and its payload, in
    arrival order.

    The validation pass every bulk load shares: payload pairing rules
    (extras ignored so infinite iterators work, exhaustion mid-load is
    an error), dimension validation, and one
    :meth:`~repro.curves.base.SpaceFillingCurve.keys_of` call: one
    vectorized ``index_many``, or exact Python ints in a universe whose
    keys pass int64 (a checkpoint of such a store recovers through
    here).  It builds no :class:`~repro.engine.executor.Record`: a bulk
    load builds each one once, in key order (:func:`_in_key_order`).
    """
    cells: List[Tuple[int, ...]] = []
    attached: List[Any] = []
    if payloads is None:
        cells = [tuple(map(int, point)) for point in points]
        attached = [None] * len(cells)
    else:
        payload_iter = iter(payloads)
        for point in points:
            try:
                payload = next(payload_iter)
            except StopIteration:
                raise InvalidQueryError(
                    f"payloads exhausted after {len(cells)} points"
                ) from None
            cells.append(tuple(map(int, point)))
            attached.append(payload)
    if not cells:
        return np.empty(0, dtype=np.int64), cells, attached
    dim = curve.dim
    if any(len(cell) != dim for cell in cells):
        bad = next(cell for cell in cells if len(cell) != dim)
        raise OutOfUniverseError(
            f"cell {bad!r} outside {dim}-d universe of side {curve.side}"
        )
    return curve.keys_of(cells), cells, attached


def _in_key_order(keys: np.ndarray) -> Tuple[np.ndarray, List[int]]:
    """``keys`` sorted, as a key column, and the input position of each
    of its entries, in order: the sort a bulk load and a migration
    cutover lay their record column out by.

    The sort is stable, so the records of one key keep the order they
    came in: a bulk load's arrival order, or a migration snapshot's
    column order, the order the key's bucket holds them in.  The caller
    builds its record column once, as a new list, by reading its inputs
    at the returned positions, so the column's records lie in memory in
    key order.  The key column takes
    :func:`~repro.engine.plan.key_column`'s dtype.
    """
    order = np.argsort(keys, kind="stable")
    return key_column(keys[order]), order.tolist()


def _merged_columns(
    base: PageLayout, written: Dict[int, Sequence[Record]]
) -> PageLayout:
    """``base``'s columns with the run of each ``written`` key replaced
    by the bucket its last write noted, as a page-less layout.

    Every write notes each key it changed with that key's bucket after
    the write (:meth:`SpatialStore._append_records`,
    :meth:`SpatialStore._note_write`): the list the tree holds, in
    arrival order, or the one a delete emptied.  Every other run of the base is
    still current, so the merge reads no tree, and it stays cheap when
    the delta is the whole store (the first read of a store built by
    single inserts merges into empty columns).  The written keys are
    sorted once, into one array: int64 where they fit, else by
    :func:`~repro.engine.plan.key_column`'s rule.  One search of the
    base's key column with that array finds both ends of every run; an
    ``int64`` column holds only keys below :data:`_INT64_MAX`, so an
    ``object`` array searches it clamped.  One loop fills a new list
    with each kept slice of the base and each bucket, and that list is
    the merged record column: no code changes it afterwards
    (CONTRIBUTING invariant 14), so a reader still holding the base's
    column sees it as it was.  The key column is the base's kept keys
    and the array repeated by the buckets' sizes, merged, under
    :func:`~repro.engine.plan.key_column`'s rule.  A checkpoint, the
    shard loads, ``rebalance`` and a migration snapshot install it
    without packing, so the next merge searches it as it is: an
    ``int64`` column holding :data:`_INT64_MAX` would give a clamped
    search the wrong run.
    """
    try:
        keys = np.fromiter(written, dtype=np.int64, count=len(written))
        keys.sort()
    except OverflowError:  # a key past int64
        keys = key_column(sorted(written))
    column = base.keys
    needles = keys
    if keys.dtype == object and column.dtype != object:
        needles = np.minimum(keys, _INT64_MAX).astype(np.int64)
    lo = column.searchsorted(needles, side="left")
    hi = column.searchsorted(needles, side="right")
    # Edges 0, lo[0], hi[0], lo[1], ..., hi[-1], n: the runs between
    # them alternate kept and written, starting and ending kept.
    edges = np.empty(2 * len(keys) + 2, dtype=np.int64)
    edges[0], edges[-1] = 0, len(column)
    edges[1:-1:2] = lo
    edges[2:-1:2] = hi
    kept = np.repeat(np.arange(len(edges) - 1) % 2 == 0, np.diff(edges))
    buckets = list(map(written.__getitem__, keys.tolist()))
    records = base.records
    merged: List[Record] = []
    start = 0
    for bucket, run_lo, run_hi in zip(buckets, lo.tolist(), hi.tolist()):
        if start < run_lo:
            merged += records[start:run_lo]
        merged += bucket
        start = run_hi
    merged += records[start:]
    counts = list(map(len, buckets))
    merged_keys = np.concatenate((column[kept], np.repeat(keys, counts)))
    # Two ascending parts: a stable (run-merging) sort is one linear merge.
    merged_keys.sort(kind="stable")
    return PageLayout(
        capacity=base.capacity, keys=key_column(merged_keys), records=merged
    )


def pack_columns(
    disk: SimulatedDisk,
    page_capacity: int,
    keys: Union[Sequence[int], np.ndarray],
    records: List[Record],
) -> PageLayout:
    """Lay ascending ``keys`` and their ``records`` out as a page layout.

    The single statement of the page-building rule, and the only code
    that builds a :class:`~repro.engine.executor.Page`: the key column
    is a fresh array of :func:`~repro.engine.plan.key_column`'s dtype
    (its identity tells a plan's layout from another,
    :meth:`~repro.engine.plan.QueryPlan.positions_in`).  The layout
    keeps the ``records`` list itself: a merge, a bulk load and a
    cutover each build a new one, and no code changes it afterwards.
    Pages are filled to ``page_capacity``, so page ``p`` holds the
    records at positions ``[p * page_capacity, (p + 1) * page_capacity)``.
    ``keys[i]`` must be the curve key of ``records[i]`` under the curve
    the layout will serve (CONTRIBUTING invariant 14): a query's records
    are sliced from the record column at its exact runs' positions,
    without a geometric test.  Every
    flush ends here, and so does the migration cutover, so the sharded
    index's byte-identical-layout guarantee (and with it shard
    transparency) rests on this one function.

    A page carries only its record count, so the layout's full pages
    share one ``Page(page_capacity)`` and a short last page is one more
    ``Page``; one :meth:`~repro.storage.disk.SimulatedDisk.allocate`
    call gives the layout all of its page ids, consecutive.  The layout
    owns the pages it packs and the disk holds them weakly, so they are
    freed with the layout's last reader, and a later allocation drops
    their ids' slots once every older layout is freed too; ids are
    never reused.
    The pages are a pure function of the records and the curve, which
    is why a flush is never logged: recovery packs the same pages again
    on its first read.
    """
    full, short = divmod(len(records), page_capacity)
    page = Page(page_capacity)
    tail = Page(short) if short else None
    first = disk.allocate(page, full, tail)
    pages = [page] * full
    if tail is not None:
        pages.append(tail)
    return PageLayout(
        capacity=page_capacity,
        keys=key_column(keys),
        records=records,
        page_ids=list(range(first, first + len(pages))),
        pages=pages,
    )


def merge_plans(
    plans: Sequence[QueryPlan],
    layout: Optional[PageLayout] = None,
) -> QueryPlan:
    """Combine per-rect plans into one overlap-deduplicated union plan.

    The exact key runs of all plans are unioned and coalesced (so a key
    covered by several rects is scanned once and each record returned
    once), gap merging is re-applied to the *union* — matching what
    planning the union region directly would produce — and the union's
    scan runs and exact runs are resolved against ``layout``
    (:meth:`~repro.engine.plan.PageLayout.resolve`).  The union's exact
    runs hold exactly the keys of the union's cells, so its records are
    their slices.  The plan's region, the
    :class:`~repro.api.query.RectUnion` of the member rects, is for
    EXPLAIN and the recorder's shape telemetry.
    """
    if not plans:
        raise InvalidQueryError("merge_plans needs at least one plan")
    if len(plans) == 1:
        return plans[0]
    policy = plans[0].policy
    runs = tuple(merge_runs_with_gaps(sorted(run for plan in plans for run in plan.runs), 0))
    scan_runs = tuple(merge_runs_with_gaps(runs, policy.gap_tolerance))
    positions = layout.resolve(scan_runs, runs) if layout is not None else None
    return QueryPlan(
        curve=plans[0].curve,
        rect=RectUnion(tuple(plan.rect for plan in plans)),
        policy=policy,
        runs=runs,
        scan_runs=scan_runs,
        positions=positions,
    )


class SpatialStore(abc.ABC):
    """Abstract base of every SFC-keyed store (single-node or sharded).

    The storage topology lives here, once: the sorted key and record
    columns, the write delta that the next read merges into them, one
    B+-tree mapping each curve key to its bucket of records, one record
    count, snapshots and the migration snapshot/cutover.  Subclasses
    pick only the serving engine through two methods:
    :meth:`_make_planner` and :meth:`_make_executor`.

    One lock model for every store: the constructor creates a
    re-entrant ``_mutex`` (every mutation, snapshot and introspection
    read of a ``guarded-by: _mutex`` field serializes on it; the
    migrator's lock-held final attempt holds it too) and an
    ``_io_lock`` that every executor generation shares for its charged
    page reads.  ``repro lint`` enforces the ``_mutex`` -> ``_io_lock``
    acquisition order.
    """

    #: Durable backing (WAL + checkpoints), or None for a purely
    #: in-memory store.  When set, every mutation path appends its
    #: logical operation to the WAL *before* applying it
    #: (WAL-before-apply), under the same mutex as the mutation.
    _durability = None

    def __init__(
        self,
        curve: SpaceFillingCurve,
        *,
        page_capacity: int,
        buffer_pages: int,
        plan_cache_size: int,
        recorder: Any,
        durable_path: Any,
        durable_sync: bool,
        durable_ops: Any,
    ) -> None:
        if page_capacity < 1:
            raise InvalidQueryError(f"page_capacity must be >= 1, got {page_capacity}")
        # Re-entrant: the migrator's final attempt holds it across calls
        # that take it again, and a flush may run inside a snapshot.
        self._mutex = threading.RLock()
        # One I/O lock shared by every executor generation: a query that
        # snapshotted the previous executor must still serialize its
        # charged reads with queries on the new one (same disk), and
        # pool clears during a layout swap happen under it.
        self._io_lock = threading.Lock()
        self._page_capacity = page_capacity
        self._recorder = recorder
        self._disk = SimulatedDisk()
        self._pool = BufferPool(self._disk, buffer_pages) if buffer_pages else None
        self._plan_cache = PlanCache(plan_cache_size) if plan_cache_size else None
        self._curve = curve  # guarded-by: _mutex (swapped by migration cutover)
        self._planner = self._make_planner(curve)  # guarded-by: _mutex
        self._tree = BPlusTree()  # guarded-by: _mutex
        self._count = 0  # guarded-by: _mutex
        self._layout: Optional[PageLayout] = None  # guarded-by: _mutex
        #: The store's sorted key and record columns, without pages (so
        #: an installed layout's still die with its last reader): the
        #: only ordered copy of the records, empty at first.  Each key
        #: written since they were taken maps to its current bucket in
        #: the write delta, which the next read merges into them.
        self._base = PageLayout(
            capacity=page_capacity, keys=key_column([]), records=[]
        )  # guarded-by: _mutex
        self._dirty: Dict[int, Sequence[Record]] = {}  # guarded-by: _mutex
        self._executor = None  # guarded-by: _mutex
        #: Layout generation, bumped by every flush and migration cutover;
        #: keys the plan cache so stale-generation plans cannot be served.
        self._epoch = 0  # guarded-by: _mutex
        #: Content version, bumped by every write; the migration protocol
        #: uses it to detect writes racing an optimistic re-key pass.
        self._version = 0  # guarded-by: _mutex
        self._init_durability(durable_path, durable_ops, durable_sync)

    # ------------------------------------------------------------------
    # The serving engine (the only per-subclass code)
    # ------------------------------------------------------------------
    @abc.abstractmethod
    @guarded_by("_mutex")
    def _make_planner(self, curve: SpaceFillingCurve):
        """A planner for ``curve`` (callers hold the mutex)."""

    @abc.abstractmethod
    def _make_executor(self, layout: PageLayout):
        """An executor bound to ``layout`` that shares the store's
        ``_io_lock`` (callers hold the mutex)."""

    # ------------------------------------------------------------------
    # Storage topology: sorted columns, a write delta, a tree of buckets
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        """Number of stored records."""
        with self._mutex:
            return self._count

    @guarded_by("_mutex")
    def _append_records(
        self, keys: Sequence[int], records: Sequence[Record]
    ) -> List[Record]:
        """File ``records`` under their ascending ``keys`` (callers hold
        the mutex), and return the bucket the last record went into.

        The one apply path of every write that adds records.  Each
        distinct key takes one tree insert, in key order, whose bucket
        is that key's run of ``records``, or extends its bucket when the
        tree already holds the key; equal keys keep their column order.
        Into a non-empty store, each distinct key is noted in the write
        delta with its bucket.  A store with no records has an empty
        tree, which holds none of the keys, so it is filled without a
        lookup, and nothing is noted: a bulk load or a migration cutover
        installs its sorted columns as the base, and an insert notes its
        key itself (:meth:`_note_write`).
        """
        tree, dirty = self._tree, self._dirty
        fresh = self._count == 0
        last: Optional[int] = None
        bucket: List[Record] = []
        for key, record in zip(keys, records):
            if key != last:
                last = key
                existing = None if fresh else tree.get(key)
                if existing is None:
                    bucket = []
                    tree.insert(key, bucket)
                else:
                    bucket = existing
                if not fresh:
                    dirty[key] = bucket
            bucket.append(record)
        self._count += len(records)
        return bucket

    def _snapshot(self):
        """Atomic ``(planner, layout, executor, epoch)`` for one layout
        generation, flushing first if the layout is stale.

        Taken under the mutex so planning and execution never mix layout
        generations; everything expensive then runs outside it — a
        snapshot stays readable after a reflush because it holds its
        layout, which owns its pages (the disk holds them weakly).
        """
        with self._mutex:
            if self._layout is None or self._executor is None:
                self.flush()
            return self._planner, self._layout, self._executor, self._epoch

    # ------------------------------------------------------------------
    # Shared introspection
    # ------------------------------------------------------------------
    @property
    def curve(self) -> SpaceFillingCurve:
        """The curve keying this store."""
        with self._mutex:
            return self._curve

    @property
    def disk(self) -> SimulatedDisk:
        """The simulated disk backing flushed scans."""
        return self._disk

    @property
    def buffer_pool(self):
        """The LRU pool absorbing re-reads, when configured."""
        return self._pool

    @property
    def planner(self):
        """The planner producing this store's query plans."""
        with self._mutex:
            return self._planner

    @property
    def plan_cache(self):
        """The LRU plan cache, when enabled."""
        return self._plan_cache

    @property
    def page_layout(self) -> Optional[PageLayout]:
        """Key layout of the flushed pages (None until a flush)."""
        with self._mutex:
            return self._layout

    @property
    def executor(self):
        """The executor bound to the current layout (None until a flush)."""
        with self._mutex:
            return self._executor

    @property
    def recorder(self):
        """The workload recorder observing this store's traffic (or None)."""
        return self._recorder

    @property
    def epoch(self) -> int:
        """Layout generation counter (bumped by every flush/migration)."""
        with self._mutex:
            return self._epoch

    @property
    def durability(self):
        """The durable backing (WAL + checkpoints), or None."""
        with self._mutex:
            return self._durability

    # ------------------------------------------------------------------
    # Durability (WAL-before-apply; see repro.storage.durable)
    # ------------------------------------------------------------------
    @guarded_by("_mutex")
    def _log_durable(self, op) -> None:
        """Append one logical operation to the WAL (callers hold the
        mutex, *before* applying the operation)."""
        if self._durability is not None:
            self._durability.log(op)

    @guarded_by("_mutex")
    def _log_migrate(self, curve: SpaceFillingCurve) -> None:
        """Log a migration cutover (callers hold the mutex).

        Called by :meth:`_migration_cutover` after the version check
        and before any mutation, so a crash mid-cutover recovers to
        either the old curve (frame not durable) or the new one (frame
        durable, replay re-runs the migration) — never a half-migrated
        store.  Raises before logging when ``curve``
        cannot be rebuilt from the registry.
        """
        if self._durability is not None:
            self._durability.log(("migrate",) + _curve_spec(curve))

    @guarded_by("_mutex")
    def _log_bulk(self, cells: List[Tuple[int, ...]], payloads: List[Any]) -> None:
        """Log a bulk load of ``payloads`` at ``cells``, in arrival order
        (callers hold the mutex, *before* applying the load).

        The frame's ``(point, payload)`` list is built only when the
        store is durable: a store without a WAL, and recovery's load of
        a checkpoint, which runs before durability is attached, build
        none.
        """
        if self._durability is not None:
            self._durability.log(("bulk", list(zip(cells, payloads))))

    def _attach_durability(self, durability) -> None:
        """Bind recovered durable backing to this store (recovery only)."""
        with self._mutex:
            self._durability = durability

    def _init_durability(self, durable_path, durable_ops, durable_sync) -> None:
        """Create fresh durable backing (constructor hook; call last)."""
        if durable_path is None:
            return
        from ..storage.durable import Durability

        durability = Durability(durable_path, ops=durable_ops, sync=durable_sync)
        with self._mutex:
            durability.initialize(self._durable_state())
            self._durability = durability

    @guarded_by("_mutex")
    def _durable_state(self) -> dict:
        """Construction parameters persisted in WAL headers and
        checkpoint manifests — enough for ``recover()`` to rebuild an
        empty twin of this store (callers hold the mutex)."""
        name, side, dim = _curve_spec(self._curve)
        return {
            "kind": "single",
            "curve": [name, side, dim],
            "page_capacity": self._page_capacity,
        }

    def checkpoint(self, compact: bool = False):
        """Cut a durable checkpoint: materialize every record as page
        images and atomically commit a manifest pointing at them.

        The images hold the record column a flush would pack
        (:meth:`_current_columns`).  Recovery then bulk loads the images
        and replays only WAL operations after the checkpoint, making
        recovery time proportional to the log suffix instead of the
        store's history.  ``compact=True`` additionally rotates the WAL,
        bounding the directory's size.  Returns the committed
        :class:`~repro.storage.pagefile.CheckpointManifest`.
        """
        with self._mutex:
            if self._durability is None:
                raise StorageError(
                    "store has no durable backing; construct it with "
                    "durable_path= or load it through recover()"
                )
            columns, _ = self._current_columns()
            return self._durability.write_checkpoint(
                [(record.point, record.payload) for record in columns.records],
                self._durable_state(),
                self._page_capacity,
                compact=compact,
            )

    # ------------------------------------------------------------------
    # Updates (one write path)
    # ------------------------------------------------------------------
    @guarded_by("_mutex")
    def _note_write(
        self,
        key: Optional[int] = None,
        bucket: Sequence[Record] = (),
        base: Optional[PageLayout] = None,
    ) -> None:
        """Bump the content version and drop the stale on-disk layout.

        ``key`` is the one key whose bucket an insert or a delete
        changed, and ``bucket`` that key's bucket after the write: the
        list the tree holds, or the one a delete emptied and took out of
        the tree.  The write delta maps the key to it, replacing what an
        earlier write of the key noted, so a key emptied and filled
        again maps to its new bucket.  ``base`` is the sorted columns of
        a bulk load into an empty store: they hold every record, so they
        become the base, with no keys noted.  A bulk load into a
        non-empty store noted its keys as it filed them
        (:meth:`_append_records`).
        """
        self._version += 1
        self._invalidate_layout()
        if base is not None:
            self._base, self._dirty = base, {}
        elif key is not None:
            self._dirty[key] = bucket

    def insert(self, point: Sequence[int], payload: Any = None) -> None:
        """Add a record at ``point``; multiple records per cell are allowed.

        The key is computed under the mutex: a migration cutover may
        swap the curve, and a key minted under the outgoing curve must
        never land in the incoming curve's tree.
        """
        with self._mutex:
            key = self._curve.index(point)
            record = Record(tuple(int(c) for c in point), payload)
            self._log_durable(("insert", record.point, payload))
            bucket = self._append_records((key,), (record,))
            self._note_write(key, bucket)

    def bulk_load(
        self,
        points: Iterable[Sequence[int]],
        payloads: Optional[Iterable[Any]] = None,
    ) -> None:
        """Insert many points (paired with ``payloads`` when given).

        Keys are computed in one vectorized :meth:`index_many` call
        (exact Python ints where the universe's keys pass int64) and
        stably sorted, and each record is built once, after the sort,
        straight into a new record column (:func:`_in_key_order`): its
        records lie in memory in the key order every read walks them
        in.  They reach the tree in that order, equal keys in arrival
        order: one tree insert per distinct key (:meth:`_append_records`).
        The WAL frame keeps arrival order, and is built only when the
        store is durable (:meth:`_log_bulk`).  The on-disk layout is
        invalidated once at the end.  When the store was empty, the
        sorted columns hold every record and become the base, with no
        keys noted (:meth:`_note_write`); into a non-empty store, the
        load notes each distinct key with its bucket, and the next read
        merges them into the base, as after single inserts.
        ``payloads`` may be longer than ``points`` (extras ignored, so
        infinite iterators work) but running out of payloads mid-load is
        an error, not silent truncation.

        The ``bulk_load`` span covers the whole load, keying included:
        ``records`` is the number of records loaded, and ``base`` is
        True when the load became the store's columns.  The load runs
        with the cyclic garbage collector paused
        (:func:`_collector_paused`): it allocates a record per point and
        none of it is garbage, so collection waits until the load ends,
        and the collector is put back as it was however the load exits.
        """
        with _obs_span("bulk_load", kind="storage") as sp, _collector_paused():
            with self._mutex:
                curve = self._curve
            keys, cells, attached = _keyed_arrivals(curve, points, payloads)
            sp.set("records", len(cells))
            base = None
            if cells:
                with self._mutex:
                    if self._curve != curve:
                        # A migration cut over while we were keying outside
                        # the mutex; re-key the validated cells (rare race).
                        keys = self._curve.keys_of(cells)
                    self._log_bulk(cells, attached)
                    column, order = _in_key_order(keys)
                    records = [Record(cells[i], attached[i]) for i in order]
                    # Freed before the tree insert lists the keys, where
                    # the load's memory peaks.
                    del order, cells, attached
                    if self._count == 0:
                        base = PageLayout(
                            capacity=self._page_capacity, keys=column, records=records
                        )
                    self._append_records(column.tolist(), records)
                    self._note_write(base=base)
            sp.set("base", base is not None)

    def delete(self, point: Sequence[int], payload: Any = ANY) -> bool:
        """Remove one record matching ``point`` (and ``payload``, if given).

        The default :data:`ANY` matches regardless of payload, so
        ``delete(point)`` keeps its historical match-any meaning while
        ``delete(point, None)`` targets exactly the records stored with
        ``payload=None`` (they used to be untargetable: ``None``
        doubled as the match-any marker).

        Returns True when a record was removed.  Keyed under the mutex,
        like :meth:`insert` — a stale-curve key would silently miss (or
        hit the wrong) bucket after a migration cutover.
        """
        with self._mutex:
            key = self._curve.index(point)
            bucket = self._tree.get(key)
            if not bucket:
                return False
            for i, record in enumerate(bucket):
                if payload is ANY or record.payload == payload:
                    self._log_durable(
                        (
                            "delete",
                            tuple(int(c) for c in point),
                            ("any",) if payload is ANY else ("eq", payload),
                        )
                    )
                    bucket.pop(i)
                    break
            else:
                return False
            if not bucket:
                self._tree.delete(key)
            self._count -= 1
            self._note_write(key, bucket)
            return True

    def point_query(self, point: Sequence[int]) -> List[Record]:
        """All records stored exactly at ``point``.

        One implementation for every store: an in-memory B+-tree
        lookup of the point's bucket that never touches the simulated disk, so single and
        sharded stores report identical (zero) seek accounting for
        point lookups — the regression suite pins the equality.
        """
        with self._mutex:
            key = self._curve.index(point)
            bucket = self._tree.get(key)
            return list(bucket) if bucket else []

    # ------------------------------------------------------------------
    # On-disk layout (one flush/install protocol)
    # ------------------------------------------------------------------
    @guarded_by("_mutex")
    def _invalidate_layout(self) -> None:
        """Drop the flushed layout (callers hold the mutex).

        The dropped layout owns its pages and the disk holds them only
        weakly, so they stay readable for any in-flight reader of the
        old generation and are freed with its last reader (one dead
        weakref stays per page object, at most two per layout, and an
        8-byte slot under each never-reused page id): repeated
        write/flush cycles cannot leak simulated disk.  The page-less
        base of its columns stays, for the next read to merge the
        written keys' buckets into (see :meth:`_current_columns`).
        """
        self._layout = None
        self._executor = None

    @guarded_by("_mutex")
    def _install_layout(self, layout: PageLayout) -> None:
        """Make ``layout`` the served generation: bump the epoch, drop
        everything that referred to the previous layout (buffer pool,
        plan cache) and bind a fresh executor.  The single statement of
        the install protocol, shared by :meth:`flush` and the migration
        cutover so the two paths cannot drift apart.  The pool is
        cleared under the I/O lock: a query of the previous
        generation may be mid-read through it, and the pool's
        check-then-access is not atomic against a clear.  (This is the
        one site that takes ``_io_lock`` while holding ``_mutex`` — the
        edge that fixes the canonical lock order.)  The superseded
        layout's pages are freed with its last reader (see
        :meth:`_invalidate_layout`).  The new layout's columns, without
        its pages, become the base the next flush merges into, with no
        keys written since.
        """
        self._layout = layout
        self._base = PageLayout(
            capacity=layout.capacity, keys=layout.keys, records=layout.records
        )
        self._dirty = {}
        self._epoch += 1
        if self._pool is not None:
            with self._io_lock:
                self._pool.invalidate()
        if self._plan_cache is not None:
            self._plan_cache.invalidate()
        self._executor = self._make_executor(layout)

    @guarded_by("_mutex")
    def _current_columns(self) -> Tuple[PageLayout, int]:
        """The store's key and record columns, in key order, as a
        page-less layout, and the number of noted keys merged to get
        them (callers hold the mutex).

        The base with the run of each key noted in the write delta
        replaced by the key's current bucket (:func:`_merged_columns`),
        or the base as it is when no key was noted.  The result becomes
        the base, with no keys noted, so the next flush or checkpoint
        takes it without merging again.  Every flush, checkpoint,
        migration snapshot, ``rebalance`` and ``shard_loads`` reads the
        records through here.
        """
        dirty = self._dirty
        if dirty:
            self._base = _merged_columns(self._base, dirty)
            self._dirty = {}
        return self._base, len(dirty)

    def flush(self) -> None:
        """Lay every record out on the simulated disk in curve-key order.

        Packs the current columns (:meth:`_current_columns`), so the
        first flush after a bulk load into an empty store merges no keys
        at all.  :func:`pack_columns` fills pages to ``page_capacity``
        records in one disk allocation, and the new layout is installed
        via :meth:`_install_layout` (epoch bump, buffer pool and plan
        cache invalidated: both refer to the previous layout).  The
        ``flush`` span's ``merged_keys`` is the number of noted keys
        merged.  Nothing is logged: the layout is a pure function of the
        logged records and the curve, so a read never writes the WAL and
        recovery rebuilds the same pages when it first reads.
        """
        with self._mutex:
            with _obs_span("flush", kind="storage") as sp:
                columns, merged = self._current_columns()
                layout = pack_columns(
                    self._disk, self._page_capacity, columns.keys, columns.records
                )
                self._install_layout(layout)
                sp.set("merged_keys", merged)
                sp.set("pages", len(layout.page_ids))
                sp.set("epoch", self._epoch)

    # ------------------------------------------------------------------
    # Planning
    # ------------------------------------------------------------------
    def _plan_snapshot(
        self,
        planner,
        layout: PageLayout,
        epoch: int,
        rect: Rect,
        policy: ExecutionPolicy,
    ):
        """Plan against one snapshot, memoized per ``(epoch, rect, policy)``.

        The epoch in the cache key means a plan computed against an old
        layout can never be served — or poison the cache — after a
        reflush swaps the layout.  The curve comes from the snapshot's
        planner, never from the live store, so a racing migration
        cutover cannot pair one generation's curve with another's plan.
        """
        curve = planner.curve
        rect.check_fits(curve.side)
        if self._plan_cache is None:
            return planner.plan(rect, policy, layout=layout)
        with _obs_span("plan_lookup", kind="cache") as sp:
            key = (epoch, curve, rect, policy)
            plan = self._plan_cache.get(key)
            sp.set("hit", plan is not None)
            if plan is None:
                plan = planner.plan(rect, policy, layout=layout)
                self._plan_cache.put(key, plan)
        return plan

    def plan(
        self,
        rect: Rect,
        gap_tolerance: int = 0,
        policy: Optional[ExecutionPolicy] = None,
    ):
        """Plan ``rect`` against the current layout (flushing if stale).

        Pass either ``gap_tolerance`` (convenience) or an explicit
        ``policy``; the policy wins when both are given.  Plans are
        memoized per ``(epoch, curve, rect, policy)`` until the next
        reflush.
        """
        if policy is None:
            policy = ExecutionPolicy(gap_tolerance=gap_tolerance)
        planner, layout, _, epoch = self._snapshot()
        return self._plan_snapshot(planner, layout, epoch, rect, policy)

    def explain(self, rect: Rect, gap_tolerance: int = 0) -> str:
        """Human-readable plan for ``rect`` (the engine's EXPLAIN)."""
        return self.plan(rect, gap_tolerance=gap_tolerance).explain()

    def _compile_snapshot(self, planner, layout: PageLayout, epoch: int, query: Query):
        """Compile ``query``'s region into one executable plan.

        Each member rect is planned through the epoch-keyed cache;
        multi-rect unions are merged (overlap-deduplicated) by the
        subclass's :meth:`_merge_snapshot`.
        """
        plans = [
            self._plan_snapshot(planner, layout, epoch, rect, query.policy)
            for rect in query.rects
        ]
        if len(plans) == 1:
            return plans[0]
        return self._merge_snapshot(plans, planner, layout)

    def _merge_snapshot(self, plans, planner, layout: PageLayout):
        """Merge per-rect plans of one snapshot into a union plan.

        Default: :func:`merge_plans`.  The sharded store overrides this
        to re-scatter the merged global plan across its shard map.
        """
        return merge_plans(plans, layout)

    # ------------------------------------------------------------------
    # The front door: execute / cursor / knn (and the legacy facades)
    # ------------------------------------------------------------------
    def execute(self, query: Union[Query, Rect]):
        """Run ``query`` and return a fully materialized result.

        Plain queries (no predicate, limit or projection — including
        multi-rect unions) run through the legacy plan/execute path and
        return the store's native result type
        (:class:`~repro.engine.executor.RangeQueryResult` or the
        sharded variant with per-shard attribution), byte-identical to
        :meth:`range_query`.  Rich queries drain a :meth:`cursor` and
        return a :class:`~repro.api.cursor.QueryResult`.
        """
        query = Query.of(query)
        if query.is_plain:
            planner, layout, executor, epoch = self._snapshot()
            plan = self._compile_snapshot(planner, layout, epoch, query)
            return executor.execute(plan)
        return self.cursor(query).to_result()

    def cursor(self, query: Union[Query, Rect]) -> Cursor:
        """Open a streaming :class:`~repro.api.cursor.Cursor` over ``query``.

        Rows are pulled page by page in key order through the store's
        executor — seeks, pages and over-read accounting identical to
        the materialized path, proven by the differential suite — with
        peak record residency of one page and early exit as soon as a
        row limit is satisfied.
        """
        query = Query.of(query)
        planner, layout, executor, epoch = self._snapshot()
        plan = self._compile_snapshot(planner, layout, epoch, query)
        return Cursor(executor.stream(plan), query)

    def knn(self, point: Sequence[int], k: int, metric: str = "euclidean"):
        """The ``k`` records nearest to ``point`` (expanding range search).

        Grows a box around ``point`` in doubling radii, scanning each
        box through the plan/execute path (so every expansion is priced
        and recorded like any range query), until the ``k``-th best
        distance is provably inside the searched box.  Returns a
        :class:`~repro.api.knn.KNNResult`; differential tests check it
        against a brute-force oracle in 2-d and 3-d.
        """
        from .knn import knn_search

        return knn_search(self, point, k, metric=metric)

    def range_query(self, rect: Rect, gap_tolerance: int = 0):
        """All records inside ``rect`` plus the simulated I/O profile.

        A thin facade over :meth:`execute` with a single-rect plain
        :class:`Query` — the historical one-call signature, returning
        the store's native result type with byte-identical records and
        I/O accounting.

        ``gap_tolerance > 0`` enables the relaxed retrieval model from
        the paper's related work (Asano et al.): runs separated by at
        most that many keys are scanned as one, trading over-read
        records (reported in ``over_read``) for fewer seeks.
        """
        return self.execute(Query.rect(rect).hint(gap_tolerance=gap_tolerance))

    def range_query_batch(
        self,
        rects: Sequence[Rect],
        gap_tolerance: int = 0,
        policy: Optional[ExecutionPolicy] = None,
    ):
        """Execute a whole workload of rect queries in key order.

        Plans every rect against one snapshot (hitting the plan cache
        for repeats), then runs the plans sorted by first scanned key,
        so a query starting where the previous one ended reads
        sequentially instead of seeking.  ``results[i]`` corresponds to
        ``rects[i]``.
        """
        if policy is None:
            policy = ExecutionPolicy(gap_tolerance=gap_tolerance)
        planner, layout, executor, epoch = self._snapshot()
        plans = [
            self._plan_snapshot(planner, layout, epoch, rect, policy)
            for rect in rects
        ]
        return executor.execute_batch(plans)

    # ------------------------------------------------------------------
    # Online migration (the adaptive control plane's data-plane hooks)
    # ------------------------------------------------------------------
    def migrate_to(self, curve: SpaceFillingCurve, batch_size: int = 4096):
        """Re-key this store onto ``curve`` and cut over (online migration).

        Convenience front end to
        :class:`~repro.adaptive.OnlineMigrator`; returns its
        :class:`~repro.adaptive.MigrationReport`.  Queries keep serving
        the old layout while records are re-keyed; only the final
        cutover (and, under write contention, the last retry) holds the
        store mutex.
        """
        from ..adaptive.migrator import OnlineMigrator

        return OnlineMigrator(batch_size=batch_size).migrate(self, curve)

    def _migration_snapshot(self) -> Tuple[int, List[Record]]:
        """A consistent ``(version, records)`` view of the contents: the
        current record column (:meth:`_current_columns`), in key order,
        taken under the mutex, the same list a flush packs.  No code
        changes a record column after it is built, so the list stays as
        it was whatever the store is asked to do afterwards."""
        with self._mutex:
            columns, _ = self._current_columns()
            return self._version, columns.records

    def _migration_cutover(
        self,
        curve: SpaceFillingCurve,
        keys: np.ndarray,
        records: List[Record],
        expected_version: int,
    ) -> bool:
        """Atomically install ``records`` re-keyed under ``curve``.

        ``records`` is the record column of the snapshot taken at
        ``expected_version``, and ``keys[i]`` the key of ``records[i]``
        under ``curve``.  Under the mutex: refuses (returns False) when
        writes landed since the snapshot was taken — the migrator then
        re-snapshots.  Otherwise the columns are sorted by new key with
        :func:`_in_key_order`, the stable sort a bulk load uses, so the
        records of one key keep their snapshot order, into a new record
        list (the snapshot's list is left as it was); every record goes
        into a fresh tree through :meth:`_append_records`, the apply
        path of every write; the shadow layout is packed on the same
        append-only disk by :func:`pack_columns`, which every flush ends
        in — keeping a migrated store identical to a fresh one, shard
        transparency included — and the store serves the new curve
        through a new planner and executor, epoch bumped, plan cache and
        buffer pool invalidated, and the new curve's columns the base.
        """
        with self._mutex:
            if self._version != expected_version:
                return False
            self._log_migrate(curve)
            self._curve = curve
            self._planner = self._make_planner(curve)
            self._tree = BPlusTree()
            self._count = 0
            column, order = _in_key_order(keys)
            ordered = [records[i] for i in order]
            del order  # freed before the tree insert lists the keys
            self._append_records(column.tolist(), ordered)
            self._install_layout(
                pack_columns(self._disk, self._page_capacity, column, ordered)
            )
            return True
