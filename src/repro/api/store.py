"""``SpatialStore``: the one front door every index serves through.

Before this module, :class:`~repro.index.spatial.SFCIndex` and
:class:`~repro.index.sharded.ShardedSFCIndex` each carried their own
copy of the serving facade — insert/delete/bulk-load, point queries,
flush, planning, EXPLAIN, range queries, migration — and the two kept
drifting.  ``SpatialStore`` hoists that facade into one abstract base:

* **one storage topology** — one B+-tree of key buckets and one record
  count for all records, so the key-ordered flush walk, snapshots and
  the migration cutover exist once; a sharded store's shard map is key
  intervals its planner clips plans to, not a second way to store
  records;
* **one lock model** — a re-entrant ``_mutex`` and a shared
  ``_io_lock`` created by the constructor, so every store is
  thread-safe under the same discipline;
* **one write path** — :meth:`insert` / :meth:`bulk_load` /
  :meth:`delete` key points under the store's mutex and file records
  into the one tree (a bulk load keyed in one vectorized call, sorted
  by key and filed with one tree insert per distinct key), so
  ingestion semantics cannot diverge;
* **one flush protocol** — :meth:`flush` packs the current columns
  (:meth:`_current_columns`): the buckets of the keys written since
  the last install, as their writes noted them, merged into that
  layout's columns (or into the sorted columns of a bulk load into an
  empty tree), or the key-ordered
  :meth:`_flush_entries` walk when there is none to merge into; every
  flush ends in :func:`pack_columns`, and the layout is installed via
  the epoch-bumping :meth:`_install_layout` (the sharded layer's
  byte-identical-layout guarantee rests on this single page-building
  rule); a layout is derived state, so flushing never writes the WAL,
  and a checkpoint writes the same record column a flush packs;
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
import threading
from typing import Any, Dict, Iterable, Iterator, List, Optional, Sequence, Tuple, Union

import numpy as np

from ..core.runs import merge_runs_with_gaps
from ..curves.base import SpaceFillingCurve
from ..curves.registry import make_curve
from ..devtools.annotations import guarded_by
from ..engine.cache import PlanCache
from ..engine.cost import DEFAULT_COST_MODEL, CostModel
from ..engine.executor import Page, Record
from ..engine.plan import ExecutionPolicy, PageLayout, QueryPlan, key_column
from ..errors import InvalidQueryError, OutOfUniverseError, StorageError
from ..geometry import Rect
from ..obs.trace import span as _obs_span
from ..storage.bplustree import BPlusTree
from ..storage.buffer import BufferPool
from ..storage.disk import SimulatedDisk
from .cursor import Cursor, QueryResult
from .query import Query, RectUnion

__all__ = [
    "ANY", "SpatialStore", "pack_layout", "pack_columns", "merge_plans"
]


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

#: A flush merges the keys written since the last install while they
#: number at most this fraction of the previous layout's records; past
#: it, writes stop tracking keys and the next flush walks the tree.  A
#: merge costs a few us per written key on top of one copy of the
#: columns, a walk a fixed Python pass over every record: on a
#: 20,000-record onion store of side 256 (2-core x86-64, Python 3.11,
#: numpy 2.4; median of 11 in each of five processes), merging 1,250
#: keys (1/16) took 3.4-6.4 ms against 9.7-13.2 ms for the walk, and the
#: two met between 4,000 and 5,000 keys (1/5 to 1/4).  1/16 keeps the
#: merge well clear of that crossover.
_MERGE_FRACTION = 1 / 16


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


def _keyed_arrivals(
    curve: SpaceFillingCurve,
    points: Iterable[Sequence[int]],
    payloads: Optional[Iterable[Any]],
) -> Tuple[np.ndarray, List[Record]]:
    """Each point's key under ``curve`` and its record, in arrival order.

    The validation pass every bulk load shares: payload pairing rules
    (extras ignored so infinite iterators work, exhaustion mid-load is
    an error), dimension validation, and one
    :meth:`~repro.curves.base.SpaceFillingCurve.keys_of` call: one
    vectorized ``index_many``, or exact Python ints in a universe whose
    keys pass int64 (a checkpoint of such a store recovers through
    here).
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
        return np.empty(0, dtype=np.int64), []
    dim = curve.dim
    if any(len(cell) != dim for cell in cells):
        bad = next(cell for cell in cells if len(cell) != dim)
        raise OutOfUniverseError(
            f"cell {bad!r} outside {dim}-d universe of side {curve.side}"
        )
    keys = curve.keys_of(cells)
    return keys, list(map(Record, cells, attached))


def _in_key_order(
    keys: np.ndarray, records: Sequence[Record]
) -> Tuple[np.ndarray, Tuple[Record, ...]]:
    """``keys`` and ``records`` as two columns sorted by key.

    The sort is stable, so the records of one key keep their arrival
    order: the order its bucket holds them in and a walk yields them.
    The key column takes :func:`~repro.engine.plan.key_column`'s dtype.
    """
    order = np.argsort(keys, kind="stable")
    return key_column(keys[order]), tuple([records[i] for i in order.tolist()])


def _split_pairs(
    records: Iterable[Tuple[int, Record]],
) -> Tuple[List[int], Tuple[Record, ...]]:
    """``(key, record)`` pairs as a key column and a record column."""
    keys: List[int] = []
    column: List[Record] = []
    for key, record in records:
        keys.append(key)
        column.append(record)
    return keys, tuple(column)


def _merged_columns(
    base: PageLayout, written: Dict[int, Sequence[Record]]
) -> Tuple[np.ndarray, Tuple[Record, ...]]:
    """``base``'s columns with the run of each ``written`` key replaced
    by the bucket its last write noted.

    The columns a walk of the tree would yield: once the base is taken
    (at an install, or by a bulk load into an empty tree), a bucket
    changes only through ``insert`` or ``delete`` of its key, and both
    note the key with its bucket after the write
    (:meth:`SpatialStore._note_write`): the list the tree holds, in the
    order the walk yields the key's records.  Every other run of the
    base is still current, so the merge reads no tree.  It takes a few
    steps per written key and none per record: the kept-key mask is one
    ``np.repeat`` over the run edges, and the record column is one list
    extended by each kept slice of the base and each bucket, made a
    tuple once.  The key column is the base's other keys and each
    written key once per record of its bucket, sorted; the
    concatenation is ``object`` when either part is, and
    :func:`pack_columns` then applies
    :func:`~repro.engine.plan.key_column`'s rule to the result.
    """
    keys = sorted(written)
    buckets = [written[key] for key in keys]
    lo, hi = base.bounds([(key, key) for key in keys])
    # Edges 0, lo[0], hi[0], lo[1], ..., hi[-1], n: the runs between
    # them alternate kept and written, starting and ending kept.
    edges = np.empty(2 * len(keys) + 2, dtype=np.int64)
    edges[0], edges[-1] = 0, len(base.records)
    edges[1:-1:2] = lo
    edges[2:-1:2] = hi
    kept = np.repeat(np.arange(len(edges) - 1) % 2 == 0, np.diff(edges))
    records = base.records
    column: List[Record] = []
    start = 0
    for bucket, run_lo, run_hi in zip(buckets, lo, hi):
        column += records[start:run_lo]
        column += bucket
        start = run_hi
    column += records[start:]
    counts = [len(bucket) for bucket in buckets]
    merged = np.concatenate((base.keys[kept], np.repeat(key_column(keys), counts)))
    # Two ascending parts: a stable (run-merging) sort is one linear merge.
    merged.sort(kind="stable")
    return merged, tuple(column)


def pack_layout(
    disk: SimulatedDisk,
    page_capacity: int,
    records: Iterable[Tuple[int, Record]],
) -> PageLayout:
    """Pack ``(key, record)`` pairs (ascending keys) into a page layout:
    the pairs split into a key column and a record column, in order,
    and laid out with :func:`pack_columns`."""
    return pack_columns(disk, page_capacity, *_split_pairs(records))


def pack_columns(
    disk: SimulatedDisk,
    page_capacity: int,
    keys: Union[Sequence[int], np.ndarray],
    records: Tuple[Record, ...],
) -> PageLayout:
    """Lay ascending ``keys`` and their ``records`` out as a page layout.

    The single statement of the page-building rule, and the only code
    that builds a :class:`~repro.engine.executor.Page`: the key column
    is a fresh array of :func:`~repro.engine.plan.key_column`'s dtype
    (its identity tells a plan's layout from another,
    :meth:`~repro.engine.plan.QueryPlan.positions_in`), and pages are
    filled to ``page_capacity``, so page ``p`` holds the records at
    positions ``[p * page_capacity, (p + 1) * page_capacity)``.
    ``keys[i]`` must be the curve key of ``records[i]`` under the curve
    the layout will serve (CONTRIBUTING invariant 14): exact scan runs
    are sliced from the record column without a geometric test.  Every
    flush ends here, whether its columns were merged or walked, and so
    does the migration cutover, so the sharded index's
    byte-identical-layout guarantee (and with it shard transparency)
    rests on this one function.

    A page carries only its record count, so the layout's full pages
    share one ``Page(page_capacity)`` and a short last page is one more
    ``Page``; one :meth:`~repro.storage.disk.SimulatedDisk.allocate`
    call gives the layout all of its page ids, consecutive.  The layout
    owns the pages it packs and the disk holds them weakly, so they are
    freed with the layout's last reader, leaving one dead weakref per
    page object and an 8-byte slot under each never-reused page id.
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
    scan runs are resolved against ``layout``
    (:meth:`~repro.engine.plan.PageLayout.resolve`).  The plan's region
    is the :class:`~repro.api.query.RectUnion` of the member rects: an exact
    run of the union holds only the union's cells, and the filter of a
    gap-merged run admits exactly them.
    """
    if not plans:
        raise InvalidQueryError("merge_plans needs at least one plan")
    if len(plans) == 1:
        return plans[0]
    policy = plans[0].policy
    runs = merge_runs_with_gaps(sorted(run for plan in plans for run in plan.runs), 0)
    scan_runs = merge_runs_with_gaps(runs, policy.gap_tolerance)
    positions = layout.resolve(scan_runs) if layout is not None else None
    return QueryPlan(
        curve=plans[0].curve,
        rect=RectUnion(tuple(plan.rect for plan in plans)),
        policy=policy,
        runs=tuple(runs),
        scan_runs=tuple(scan_runs),
        cost_model=plans[0].cost_model,
        positions=positions,
    )


class SpatialStore(abc.ABC):
    """Abstract base of every SFC-keyed store (single-node or sharded).

    The storage topology lives here, once: one B+-tree mapping each
    curve key to its bucket of records, one record count, the
    key-ordered flush walk, snapshots and the migration
    snapshot/cutover.  Subclasses pick only the serving engine through
    two methods: :meth:`_make_planner` and :meth:`_make_executor`.

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
        cost_model: Optional[CostModel],
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
        self._cost_model = cost_model if cost_model is not None else DEFAULT_COST_MODEL
        self._recorder = recorder
        self._disk = SimulatedDisk()
        self._pool = BufferPool(self._disk, buffer_pages) if buffer_pages else None
        self._plan_cache = PlanCache(plan_cache_size) if plan_cache_size else None
        self._curve = curve  # guarded-by: _mutex (swapped by migration cutover)
        self._planner = self._make_planner(curve)  # guarded-by: _mutex
        self._tree = BPlusTree()  # guarded-by: _mutex
        self._count = 0  # guarded-by: _mutex
        self._layout: Optional[PageLayout] = None  # guarded-by: _mutex
        #: The last installed layout's two columns, without its pages (so
        #: they still die with the layout's last reader), and each key
        #: written since it was installed, mapped to its current bucket:
        #: the next flush merges those buckets into the base.  Both None
        #: when the next flush must walk.
        self._base: Optional[PageLayout] = None  # guarded-by: _mutex
        self._dirty: Optional[Dict[int, Sequence[Record]]] = None  # guarded-by: _mutex
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
    # Storage topology: one tree of key buckets and one record count
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
        A store with no records has an empty tree, which holds none of
        the keys, so it is filled without a lookup.
        """
        tree = self._tree
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
            bucket.append(record)
        self._count += len(records)
        return bucket

    @guarded_by("_mutex")
    def _flush_entries(self) -> Iterator[Tuple[int, Record]]:
        """Every stored ``(key, record)`` in ascending key order
        (callers hold the mutex)."""
        return (
            (key, record) for key, bucket in self._tree.items() for record in bucket
        )

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
    def cost_model(self) -> CostModel:
        """The cost model pricing this store's plans."""
        return self._cost_model

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
        (:meth:`_current_columns`), so a checkpoint walks the tree only
        when a flush would.  Recovery then bulk loads the images and
        replays only WAL operations after the checkpoint, making
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
            _, records, _ = self._current_columns()
            return self._durability.write_checkpoint(
                [(record.point, record.payload) for record in records],
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

        ``key`` is the one key whose bucket the write changed, and
        ``bucket`` that key's bucket after the write: the list the tree
        holds, or the one a delete emptied and took out of the tree.
        The write delta maps the key to it, replacing what an earlier
        write of the key noted, so a key emptied and filled again maps
        to its new bucket; the next flush merges the delta's buckets
        into the base, the last installed layout's columns.  ``base`` is
        the sorted columns of a bulk load into an empty tree: they hold
        every record, so they become the base, with no keys written
        since.  Any other write with no key (a bulk load into a
        non-empty tree changes many buckets), or one that takes the
        written keys past :data:`_MERGE_FRACTION` of the base, drops the
        base: the next flush walks the tree.
        """
        self._version += 1
        self._invalidate_layout()
        if base is not None:
            self._base, self._dirty = base, {}
            return
        base, dirty = self._base, self._dirty
        if base is not None and dirty is not None and key is not None:
            dirty[key] = bucket
            if len(dirty) <= _MERGE_FRACTION * len(base.records):
                return
        self._base = self._dirty = None

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
        stably sorted, so the records reach the tree in key order with
        equal keys in arrival order: one tree insert per distinct key
        (:meth:`_append_records`).  The WAL frame keeps arrival order.
        The on-disk layout is invalidated once at the end.  When the
        tree was empty, the sorted columns hold every record and become
        the base the next flush merges into, with nothing to merge
        (:meth:`_note_write`); into a non-empty tree, the next flush
        walks.  ``payloads`` may be longer than ``points`` (extras
        ignored, so infinite iterators work) but running out of payloads
        mid-load is an error, not silent truncation.
        """
        with self._mutex:
            curve = self._curve
        keys, arrivals = _keyed_arrivals(curve, points, payloads)
        if not arrivals:
            return
        with self._mutex:
            if self._curve != curve:
                # A migration cut over while we were keying outside the
                # mutex; re-key the already-validated cells (rare race).
                keys = self._curve.keys_of([record.point for record in arrivals])
            self._log_durable(
                ("bulk", [(record.point, record.payload) for record in arrivals])
            )
            column, records = _in_key_order(keys, arrivals)
            base = None
            if self._count == 0:
                base = PageLayout(
                    capacity=self._page_capacity, keys=column, records=records
                )
            self._append_records(column.tolist(), records)
            self._note_write(base=base)

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
        lookup that never touches the simulated disk, so single and
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
        base of its columns stays, for the next flush to merge the
        written keys' buckets into (see :meth:`_note_write`).
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
    def _current_columns(self) -> Tuple[np.ndarray, Tuple[Record, ...], Optional[int]]:
        """The store's key column and record column, in key order, and
        the number of written keys merged to get them, None on a walk
        (callers hold the mutex).

        The columns come from the base: the last installed layout's
        columns, or the sorted columns of a bulk load into an empty
        tree.  The runs of the keys written since are replaced with the
        current buckets their writes noted (:func:`_merged_columns`),
        so a merge reads no tree, and a base with no keys written since,
        such as an installed layout's, is taken as it is.  With no base
        to merge into — a first flush after single-record writes, and
        after a bulk load into a non-empty tree or more written keys
        than :data:`_MERGE_FRACTION` of the base — the tree is walked
        (:meth:`_flush_entries`).  Either
        result becomes the base, with no keys written since, so the next
        flush or checkpoint takes it without merging again.
        """
        base, dirty = self._base, self._dirty
        if base is not None and dirty is not None:
            if not dirty:
                return base.keys, base.records, 0
            merged: Optional[int] = len(dirty)
            keys, records = _merged_columns(base, dirty)
        else:
            merged = None
            keys, records = _split_pairs(self._flush_entries())
        self._base = PageLayout(
            capacity=self._page_capacity, keys=key_column(keys), records=records
        )
        self._dirty = {}
        return self._base.keys, records, merged

    def flush(self) -> None:
        """Lay every record out on the simulated disk in curve-key order.

        Packs the current columns (:meth:`_current_columns`): a flush
        after single-record writes merges them into the base, so the
        first flush after a bulk load into an empty tree merges no keys
        at all, and a flush with no base to merge into walks the tree.
        Every path ends in :func:`pack_columns`, which fills pages to
        ``page_capacity`` records in one disk allocation, and the new
        layout is installed via :meth:`_install_layout` (epoch bump,
        buffer pool and plan cache invalidated: both refer to the
        previous layout).  The ``flush`` span's ``merged_keys`` is the
        number of keys merged, or None on a walk.  Nothing is logged:
        the layout is a pure function of the logged records and the
        curve, so a read never writes the WAL and recovery rebuilds the
        same pages when it first reads.
        """
        with self._mutex:
            with _obs_span("flush", kind="storage") as sp:
                keys, records, merged = self._current_columns()
                layout = pack_columns(self._disk, self._page_capacity, keys, records)
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

    def _migration_snapshot(self) -> Tuple[int, List[Tuple[int, Record]]]:
        """A consistent ``(version, [(key, record)])`` view of the contents.

        Taken under the mutex, walking :meth:`_flush_entries` — the same
        key-ordered record walk a flush packs — so the snapshot can
        never diverge from it.
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

        ``keyed`` must be sorted ascending by new key.  Under the mutex:
        refuses (returns False) when writes landed since the snapshot
        ``expected_version`` was taken — the migrator then re-snapshots.
        Otherwise every record goes into a fresh tree through
        :meth:`_append_records`, the apply path of every write, the
        shadow layout is packed on the same append-only disk by
        :func:`pack_columns`, which both flush paths end in — keeping a
        migrated store identical to a fresh one, shard transparency
        included — and the store serves the new curve through a new
        planner and executor, epoch bumped, plan cache and buffer pool
        invalidated, and the next flush merging into the new curve's
        columns.
        """
        with self._mutex:
            if self._version != expected_version:
                return False
            self._log_migrate(curve)
            self._curve = curve
            self._planner = self._make_planner(curve)
            self._tree = BPlusTree()
            self._count = 0
            keys = [key for key, _ in keyed]
            records = tuple(record for _, record in keyed)
            self._append_records(keys, records)
            self._install_layout(
                pack_columns(self._disk, self._page_capacity, keys, records)
            )
            return True
