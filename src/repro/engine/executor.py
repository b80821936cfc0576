"""The executor: runs query plans against the paged storage.

Execution is the only part of a range query that touches the (simulated)
disk: the plan says which pages each scan run covers, the executor reads
them — through the buffer pool when one is configured — to charge their
I/O, and reports the measured I/O profile as a :class:`RangeQueryResult`.

The records come from the layout, not from the pages read: a
:class:`~repro.engine.plan.PageLayout` is one key column and one record
column, so a run's records are one slice of the record column.  The
plan carries the record positions of its scan runs and of its exact
runs, and the pages the scan runs span, found by searching the key
column when it was planned (:meth:`PageLayout.resolve`), so an
execution reads those pages and slices at those positions, and
searches nothing.  A plan resolved against another layout — a
layout-free plan, or one planned before a flush replaced the layout —
is resolved against the executor's own on the spot
(:meth:`QueryPlan.positions_in`).

Records are found by key alone.  The exact runs — the paper's clusters
— cover exactly the keys of the cells inside the query, and every
layout key is its record's curve key (CONTRIBUTING invariant 14), so
an execution returns the slices at the exact runs' positions, with no
geometric test (a :class:`PlanStream` returns each page's part of
them).  A gap-merged scan run also covers tolerated-gap keys: its
records are read and charged, and the records the scan runs hold
beyond the exact runs' are the execution's over-read, a count.

Every execution — :meth:`Executor.execute`, the scatter–gather
``execute`` and a :class:`PlanStream` — charges its page reads through
:meth:`Executor._read` and reports them once, through
:meth:`Executor._report`: the I/O attributes of its ``kind="io"`` span,
the execution metrics and the workload-recorder notification.

:meth:`Executor.execute_batch` is the throughput path: it executes a
whole workload ordered by first scanned key, so a query starting where
the previous one ended continues sequentially instead of seeking — the
same trick as elevator scheduling — and reports aggregate I/O as a
:class:`BatchResult` (individual results keep the caller's order).
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass
from typing import Any, Iterator, List, Optional, Sequence, Set, Tuple

from ..costmodel import IOProfile
from ..geometry import Cell
from ..obs.metrics import METRICS
from ..obs.trace import open_span as _obs_open_span
from ..obs.trace import span as _obs_span
from ..storage.buffer import BufferPool
from ..storage.disk import DISK_SEEKS, DISK_SEQUENTIAL_READS, SimulatedDisk
from .cost import DEFAULT_COST_MODEL, CostModel
from .plan import PageLayout, Positions, QueryPlan

__all__ = [
    "Record",
    "RangeQueryResult",
    "BatchResult",
    "Executor",
    "Page",
    "PlanStream",
    "execution_order",
]


_QUERIES = METRICS.counter("repro_executor_queries_total", "plan executions (any mode)")
_QUERY_LATENCY = METRICS.histogram(
    "repro_query_latency_seconds", "wall time of one plan execution or drained stream"
)
_QUERY_RECORDS = METRICS.counter("repro_query_records_total", "records returned by executions")
_QUERY_OVER_READ = METRICS.counter(
    "repro_query_over_read_total", "records scanned but discarded in tolerated gaps"
)


@dataclass(frozen=True, slots=True)
class Record:
    """A stored item: a grid cell plus an arbitrary payload.

    Slotted, so a record has no ``__dict__``: it takes 48 bytes where a
    dict-backed one takes 88, and a store holds one per point.  A frozen
    value, not a tuple: it never compares equal to a ``(point,
    payload)`` pair.
    """

    point: Cell
    payload: Any = None


@dataclass(frozen=True)
class Page:
    """A flushed disk page: what a read returns, sized by its record count.

    The page's records are its slice of the layout's record column
    (:class:`~repro.engine.plan.PageLayout`); a read charges I/O and
    returns the page, whose ``len`` is the number of records it holds.
    A page carries nothing but that size, so every full page of a layout
    is one shared ``Page(capacity)`` and a short last page is its own
    ``Page``.  Built only by :func:`repro.api.store.pack_columns`; owned
    by its layout, while the disk holds it weakly.
    """

    __slots__ = ("size", "__weakref__")

    size: int

    def __len__(self) -> int:
        return self.size


def execution_order(plans: Sequence) -> List[int]:
    """Batch execution order: ascending first scanned key, stable.

    Used by :meth:`Executor.execute_batch`, which the scatter–gather
    batch runs through, so both elevators visit queries identically
    (empty plans sort last, ties break on submission order).
    """
    def sort_key(i: int):
        first = plans[i].first_key
        return (first is None, first if first is not None else 0, i)

    return sorted(range(len(plans)), key=sort_key)


@dataclass
class RangeQueryResult(IOProfile):
    """Records matched by a range query plus its simulated I/O profile."""

    records: List[Record]
    runs: int
    seeks: int
    sequential_reads: int
    #: Records scanned but discarded because they sat in a tolerated gap
    #: (only non-zero when ``gap_tolerance > 0``).
    over_read: int = 0


@dataclass
class BatchResult:
    """Aggregate outcome of :meth:`Executor.execute_batch`.

    ``results[i]`` always corresponds to the caller's ``plans[i]``;
    ``executed_order`` records the key-sorted order the plans actually ran
    in (the source of the seek savings).
    """

    results: List[RangeQueryResult]
    executed_order: Tuple[int, ...] = ()
    total_seeks: int = 0
    total_sequential_reads: int = 0
    total_over_read: int = 0

    @property
    def total_pages_read(self) -> int:
        """Total pages touched across the batch."""
        return self.total_seeks + self.total_sequential_reads

    @property
    def total_records(self) -> int:
        """Total records returned across the batch."""
        return sum(len(r.records) for r in self.results)

    def cost(
        self,
        seek_cost: float = DEFAULT_COST_MODEL.seek_cost,
        read_cost: float = DEFAULT_COST_MODEL.read_cost,
    ) -> float:
        """Simulated elapsed time of the whole batch."""
        return CostModel(seek_cost, read_cost).io_cost(
            self.total_seeks, self.total_sequential_reads
        )


class PlanStream:
    """Lazy, page-at-a-time execution of one plan — the engine behind
    :class:`repro.api.Cursor`.

    A view over the :class:`Executor` that opened it: the stream keeps
    only its own tallies, and reads, charges and reports through the
    executor.  Iterating the stream yields one list of the query's
    records per page read, in key order: the parts of the exact runs'
    slices of the record column that lie on that page within the scan
    run being read, found by one index that moves along the exact runs
    as the pages advance.  The page's other scan-run records are its
    over-read.  Each page is charged by :meth:`Executor._read`, one page
    per call under the executor's I/O lock, along the run/span walk
    :meth:`Executor.execute` takes, so a fully drained stream charges
    identical seeks, sequential reads and over-read — the differential
    suites in ``tests/api`` prove the equivalence.  An abandoned stream
    charges only the pages it actually pulled, which is where a row
    limit's early-exit saving comes from.

    Peak record residency is one page: nothing is accumulated across
    pages.  The stream reports exactly once, through
    :meth:`Executor._report`, when it finishes or is closed, with the
    I/O actually incurred.
    """

    def __init__(self, executor: "Executor", plan: QueryPlan):
        self._executor = executor
        self._plan = plan
        self._positions = plan.positions_in(executor.layout)
        self._seeks = 0
        self._sequential = 0
        self._over_read = 0
        self._records = 0
        self._cold = 0
        self._recorded = False
        self._total_pages = len(self._positions.pages)
        self._pages_pulled = 0
        # The stream's io span floats: it outlives this constructor's
        # scope (the generator suspends across yields), so it is ended
        # by _finalize — the same exactly-once funnel as the report
        # (span-balance lint rule).
        self._span = _obs_open_span("stream", kind="io")
        self._started = time.perf_counter() if METRICS.enabled else 0.0
        self._gen = self._run()

    # ------------------------------------------------------------------
    # Accounting (live while streaming, final once drained/closed)
    # ------------------------------------------------------------------
    @property
    def plan(self) -> QueryPlan:
        """The plan being streamed."""
        return self._plan

    @property
    def seeks(self) -> int:
        """Seeks charged so far."""
        return self._seeks

    @property
    def sequential_reads(self) -> int:
        """Sequential page reads charged so far."""
        return self._sequential

    @property
    def pages_read(self) -> int:
        """Total pages pulled so far."""
        return self._seeks + self._sequential

    @property
    def over_read(self) -> int:
        """Records scanned but discarded in tolerated gaps, so far."""
        return self._over_read

    @property
    def records_streamed(self) -> int:
        """Records of the query yielded so far."""
        return self._records

    @property
    def cold_misses(self) -> Optional[int]:
        """Buffer-pool misses so far (None when the executor has no pool)."""
        return self._cold if self._executor.pool is not None else None

    @property
    def drained(self) -> bool:
        """True once every page the plan scans has been pulled — the
        stream cannot produce further records."""
        return self._pages_pulled >= self._total_pages

    def __iter__(self) -> Iterator[List[Record]]:
        return self._gen

    def _run(self) -> Iterator[List[Record]]:
        positions = self._positions
        read = self._executor._read
        layout = self._executor.layout
        cap, column = layout.capacity, layout.records
        exact_lo, exact_hi = positions.exact_lo, positions.exact_hi
        count = len(exact_lo)
        j = 0  # the first exact run that does not end before the page's part
        try:
            for (first, last), lo, hi in zip(
                positions.spans(), positions.lo, positions.hi
            ):
                for position in range(first, last + 1):
                    seeks, sequential, cold = read((position,))
                    self._seeks += seeks
                    self._sequential += sequential
                    if cold is not None:
                        self._cold += cold
                    self._pages_pulled += 1
                    matched: List[Record] = []
                    edge = position * cap  # the page's first record position
                    start, end = max(lo, edge), min(hi, edge + cap)
                    while j < count and exact_hi[j] <= start:
                        j += 1
                    k = j
                    while k < count and exact_lo[k] < end:
                        matched += column[max(exact_lo[k], start):min(exact_hi[k], end)]
                        k += 1
                    self._over_read += end - start - len(matched)
                    self._records += len(matched)
                    yield matched
        finally:
            self._finalize()

    def _finalize(self) -> None:
        """Report the realized I/O, exactly once, and end the io span.

        The guard flag + set-true pair below is the idempotence pattern
        the ``notify-once`` rule of ``repro lint`` matches: both the
        generator's ``finally`` and :meth:`close` funnel through here,
        and whichever runs second is a no-op.
        """
        if self._recorded:
            return
        self._recorded = True
        span = self._span
        span.set("drained", self.drained)
        self._executor._report(
            span,
            self._started,
            self._plan,
            self._seeks,
            self._sequential,
            self._over_read,
            self._records,
            self.cold_misses,
        )
        span.end()

    def close(self) -> None:
        """Stop the stream; tallies freeze and the report is made.

        Idempotent; a stream abandoned before its first page reports
        zero I/O (matching an execution that read nothing).
        """
        self._gen.close()
        self._finalize()


class Executor:
    """Executes plans against one flushed page layout.

    Parameters
    ----------
    disk:
        The simulated disk whose counters measure seeks.
    layout:
        The flushed :class:`PageLayout` the plans' spans refer to.
    pool:
        Optional :class:`~repro.storage.buffer.BufferPool` serving warm
        pages.  When given, every page read goes through it, and each
        execution's span carries its *cold misses* (``pool_misses``),
        the page reads that reached the disk.  Without one, pages are
        read straight from ``disk``.
    recorder:
        Optional :class:`~repro.adaptive.WorkloadRecorder`: every
        executed plan reports its shape.
    io_lock:
        Lock held across each execution's read pass (and around each
        streamed read).  Pass one *shared* lock when several
        threads or executor generations read the same disk: every store
        hands each executor generation its single I/O lock, since a
        query racing a reflush would otherwise interleave reads with the
        new generation and corrupt seek accounting.  ``None`` gives a
        standalone executor a private lock.
    """

    def __init__(
        self,
        disk: SimulatedDisk,
        layout: PageLayout,
        pool: Optional[BufferPool] = None,
        recorder=None,
        io_lock: Optional[threading.Lock] = None,
    ):
        self._disk = disk
        self._layout = layout
        self._reader = pool.read if pool is not None else disk.read
        self._pool = pool
        self._recorder = recorder
        self._io_lock = io_lock if io_lock is not None else threading.Lock()

    @property
    def layout(self) -> PageLayout:
        """The page layout this executor scans."""
        return self._layout

    @property
    def pool(self) -> Optional[BufferPool]:
        """The buffer pool absorbing warm reads, when configured."""
        return self._pool

    # ------------------------------------------------------------------
    # The read pass and the report (shared by every execution)
    # ------------------------------------------------------------------
    def _read(
        self,
        pages: Sequence[int],
        shared_pages: Optional[Set[int]] = None,
    ) -> Tuple[int, int, Optional[int]]:
        """The charged-read pass: read the pages at the layout
        positions ``pages``, in order, and measure the I/O.

        Each page goes through the executor's page reader.  With a batch's
        ``shared_pages`` it is the shared-scan read protocol: a page the
        batch already read is not read again, a miss is read once and
        added.  Returns the seeks and sequential reads charged and the
        buffer pool's cold misses (None without a pool), all measured
        under the I/O lock.
        """
        read = self._reader
        page_ids = self._layout.page_ids
        pool = self._pool
        with self._io_lock:
            stats = self._disk.stats
            seeks_before = stats.seeks
            seq_before = stats.sequential_reads
            misses_before = pool.stats.misses if pool is not None else 0
            for position in pages:
                page_id = page_ids[position]
                if shared_pages is None:
                    read(page_id)
                elif page_id not in shared_pages:
                    shared_pages.add(page_id)
                    read(page_id)
            seeks = stats.seeks - seeks_before
            sequential = stats.sequential_reads - seq_before
            cold = pool.stats.misses - misses_before if pool is not None else None
        return seeks, sequential, cold

    def _slice(self, positions: Positions) -> Tuple[List[Record], int]:
        """The records an execution returns, in key order, and its
        over-read: the slices of the layout's record column at the exact
        runs' ``positions`` in this executor's layout, and the count of
        the scan runs' other records.  The single statement of the slice
        rule, shared by every materialized execution."""
        column = self._layout.records
        records: List[Record] = []
        for start, end in zip(positions.exact_lo, positions.exact_hi):
            records += column[start:end]
        return records, positions.scanned - len(records)

    def _report(
        self,
        sp: Any,
        started: float,
        plan: QueryPlan,
        seeks: int,
        sequential: int,
        over_read: int,
        records: int,
        cold: Optional[int],
    ) -> None:
        """The one report of an execution's realized I/O.

        Sets the I/O attributes of the execution's ``kind="io"`` span
        ``sp``, observes the execution metrics — the disk's seek and
        sequential-read counters included: ``SimulatedDisk.read`` keeps
        no counter tick on the per-page path, and every read runs inside
        a charged pass — and reports the plan's shape to the workload
        recorder.  ``started`` is 0.0 when metrics were off as the
        execution began: it then has no start to time from, and records
        no metrics even if they were switched on meanwhile.
        """
        pages = seeks + sequential
        sp.set("seeks", seeks)
        sp.set("sequential_reads", sequential)
        sp.set("pages", pages)
        sp.set("over_read", over_read)
        sp.set("records", records)
        if cold is not None:
            sp.set("pool_misses", cold)
        if started:
            _QUERIES.inc()
            # inc(0) leaves a counter unchanged but still pays its
            # locked slow path, and most executions over-read nothing.
            if seeks:
                DISK_SEEKS.inc(seeks)
            if sequential:
                DISK_SEQUENTIAL_READS.inc(sequential)
            if records:
                _QUERY_RECORDS.inc(records)
            if over_read:
                _QUERY_OVER_READ.inc(over_read)
            _QUERY_LATENCY.observe(time.perf_counter() - started)
        if self._recorder is not None:
            self._recorder.record_executed(plan.rect.lengths)

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------
    def execute(
        self,
        plan: QueryPlan,
        _shared_pages: Optional[Set[int]] = None,
    ) -> RangeQueryResult:
        """Run ``plan`` and return records plus the measured I/O profile.

        Each scan run is read as one sequential page sweep; the first
        page of a sweep costs a seek unless it directly follows the
        previous read (the disk's accounting, not the executor's).
        ``_shared_pages`` is the batch path's shared-scan state: pages
        the batch already read are not read again.  The pages come from
        the plan's scan runs' positions in this executor's layout
        (:meth:`QueryPlan.positions_in`), and the records from its
        exact runs' (:meth:`_slice`).
        """
        positions = plan.positions_in(self._layout)
        started = time.perf_counter() if METRICS.enabled else 0.0
        # Exactly one kind="io" span per execution: Trace.io_totals sums
        # these, and the differential suite holds the sum equal to the
        # untraced result.
        with _obs_span("execute", kind="io") as sp:
            seeks, sequential, cold = self._read(positions.pages, _shared_pages)
            records, over_read = self._slice(positions)
            result = RangeQueryResult(
                records=records,
                runs=len(plan.scan_runs),
                seeks=seeks,
                sequential_reads=sequential,
                over_read=over_read,
            )
            sp.set("runs", len(plan.scan_runs))
            self._report(
                sp, started, plan, seeks, sequential, over_read, len(records), cold
            )
        return result

    def stream(self, plan: QueryPlan) -> PlanStream:
        """Open a lazy page-at-a-time stream over ``plan``.

        The streaming counterpart of :meth:`execute`: the same charged
        read pass, page sequence and report — identical when fully
        drained — but one page of records resident at a time and
        early-exit on abandon.  Each charged read takes the I/O lock.
        """
        return PlanStream(self, plan)

    def execute_batch(self, plans: Sequence[QueryPlan]) -> BatchResult:
        """Run a workload of plans as one shared, key-ordered scan.

        Two batch effects combine to beat the equivalent query-at-a-time
        loop: plans run sorted by first scanned key, so first-time page
        reads arrive in ascending order and inter-query seeks become
        sequential reads; and page reads are shared across the batch
        (shared-scan / multi-query optimization), so a page needed by
        several queries is read once.  The shared state is the set of
        the batch's distinct page ids, released when the call returns.

        Per-query results report the I/O actually incurred while that
        query ran (shared pages cost nothing), so the aggregate counters
        equal the sum over results.  Results come back in the caller's
        order, not execution order.
        """
        order = execution_order(plans)
        results: List[Optional[RangeQueryResult]] = [None] * len(plans)
        shared_pages: Set[int] = set()
        total_seeks = total_sequential = total_over = 0
        with _obs_span("execute_batch", kind="batch") as sp:
            for i in order:
                result = self.execute(plans[i], _shared_pages=shared_pages)
                results[i] = result
                total_seeks += result.seeks
                total_sequential += result.sequential_reads
                total_over += result.over_read
            sp.set("queries", len(plans))
            sp.set("seeks", total_seeks)
            sp.set("sequential_reads", total_sequential)
        return BatchResult(
            results=results,  # type: ignore[arg-type]
            executed_order=tuple(order),
            total_seeks=total_seeks,
            total_sequential_reads=total_sequential,
            total_over_read=total_over,
        )
