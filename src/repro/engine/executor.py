"""The executor: runs query plans against the paged storage.

Execution is the only part of a range query that touches the (simulated)
disk: the plan says which pages each scan run covers, the executor reads
them — through the buffer pool when one is configured — filters records,
and reports the measured I/O profile as a :class:`RangeQueryResult`.

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
from typing import Any, Callable, Iterator, List, Optional, Sequence, Tuple

from ..geometry import Cell
from ..obs.metrics import METRICS
from ..obs.trace import open_span as _obs_open_span
from ..obs.trace import span as _obs_span
from ..storage.buffer import BufferPool
from ..storage.disk import SimulatedDisk
from .cost import DEFAULT_COST_MODEL, CostModel
from .plan import PageLayout, QueryPlan

__all__ = [
    "Record",
    "RangeQueryResult",
    "BatchResult",
    "Executor",
    "PlanStream",
    "execution_order",
    "read_page",
    "resolved_spans",
    "scan_page",
]


_QUERIES = METRICS.counter("repro_executor_queries_total", "plan executions (any mode)")
_QUERY_LATENCY = METRICS.histogram(
    "repro_query_latency_seconds", "wall time of one plan execution or drained stream"
)
_QUERY_RECORDS = METRICS.counter("repro_query_records_total", "records returned by executions")
_QUERY_OVER_READ = METRICS.counter(
    "repro_query_over_read_total", "records scanned but discarded in tolerated gaps"
)


def _observe_execution(started: float, records: int, over_read: int) -> None:
    """Per-execution counters + latency (no-ops while metrics are off).

    Zero amounts are skipped at the call site: ``inc(0)`` leaves the
    counter unchanged but still pays the locked slow path, and most
    executions over-read nothing.
    """
    _QUERIES.inc()
    if records:
        _QUERY_RECORDS.inc(records)
    if over_read:
        _QUERY_OVER_READ.inc(over_read)
    _QUERY_LATENCY.observe(time.perf_counter() - started)


@dataclass(frozen=True)
class Record:
    """A stored item: a grid cell plus an arbitrary payload."""

    point: Cell
    payload: Any = None


def resolved_spans(plan: QueryPlan, layout: PageLayout):
    """The plan's page spans, resolving layout-free plans on the spot."""
    if plan.page_spans is not None:
        return plan.page_spans
    return tuple(layout.span(start, end) for start, end in plan.scan_runs)


def read_page(reader, page_id: int, page_cache: Optional[dict]):
    """One page through the (optional) shared-scan cache.

    The single statement of the batch read protocol — a cached page is
    served without touching storage, a miss is read once and shared —
    behind :meth:`Executor._charged`, the read pass both the single-node
    and the scatter–gather executors run.
    """
    if page_cache is None:
        return reader(page_id)
    page = page_cache.get(page_id)
    if page is None:
        page = reader(page_id)
        page_cache[page_id] = page
    return page


def scan_page(page, start: int, end: int, rect, records: List[Record]) -> int:
    """Filter one page's records into ``records``; returns the over-read.

    The single statement of the filter rule — keys inside ``[start,
    end]`` whose points miss ``rect`` are tolerated-gap over-reads —
    shared by both executors (the shard-transparency contract depends
    on them filtering identically).
    """
    over_read = 0
    if page[-1][0] >= start:
        for key, record in page:
            if start <= key <= end:
                if rect.contains(record.point):
                    records.append(record)
                else:
                    over_read += 1
    return over_read


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
class RangeQueryResult:
    """Records matched by a range query plus its simulated I/O profile."""

    records: List[Record]
    runs: int
    seeks: int
    sequential_reads: int
    #: Records scanned but discarded because they sat in a tolerated gap
    #: (only non-zero when ``gap_tolerance > 0``).
    over_read: int = 0

    @property
    def pages_read(self) -> int:
        """Total pages touched."""
        return self.seeks + self.sequential_reads

    def cost(
        self,
        seek_cost: float = DEFAULT_COST_MODEL.seek_cost,
        read_cost: float = DEFAULT_COST_MODEL.read_cost,
    ) -> float:
        """Simulated elapsed time under the configured disk constants."""
        return CostModel(seek_cost, read_cost).io_cost(self.seeks, self.sequential_reads)


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

    Iterating the stream yields one list of region-matched records per
    page read, in key order.  The page-read sequence is *exactly* the
    one :meth:`Executor.execute` issues for the same plan (same reader,
    same run/span walk), so a fully drained stream charges identical
    seeks, sequential reads and over-read — the differential suite in
    ``tests/api`` proves the equivalence.  An abandoned stream charges
    only the pages it actually pulled, which is where a row limit's
    early-exit saving comes from.

    Peak record residency is one page: nothing is accumulated across
    pages.  I/O accounting is tallied per read (under ``io_lock``, so
    streams serialize their charged reads with concurrent executions'
    read passes; a stream given none takes a private lock); the
    workload recorder is notified exactly once, when the stream
    finishes or is closed, with the I/O actually incurred.
    """

    def __init__(
        self,
        disk: SimulatedDisk,
        layout: PageLayout,
        plan: QueryPlan,
        reader: Callable[[int], Any],
        pool: Optional[BufferPool] = None,
        pool_in_path: bool = False,
        io_lock: Optional[threading.Lock] = None,
        recorder=None,
    ):
        self._disk = disk
        self._layout = layout
        self._plan = plan
        self._reader = reader
        self._pool = pool
        self._pool_in_path = pool_in_path
        self._io_lock = io_lock if io_lock is not None else threading.Lock()
        self._recorder = recorder
        self._seeks = 0
        self._sequential = 0
        self._over_read = 0
        self._records = 0
        self._cold = 0
        self._recorded = False
        self._total_pages = sum(
            last - first + 1
            for first, last in resolved_spans(plan, layout)
            if last >= first
        )
        self._pages_pulled = 0
        # The stream's io span floats: it outlives this constructor's
        # scope (the generator suspends across yields), so it is ended
        # by _finalize — the same exactly-once funnel as the recorder
        # notification (span-balance lint rule).
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
        """Region-matched records yielded so far."""
        return self._records

    @property
    def cold_misses(self) -> Optional[int]:
        """Buffer-pool misses so far (None when no pool is in the path)."""
        return self._cold if self._pool_in_path else None

    @property
    def drained(self) -> bool:
        """True once every page the plan scans has been pulled — the
        stream cannot produce further records."""
        return self._pages_pulled >= self._total_pages

    def __iter__(self) -> Iterator[List[Record]]:
        return self._gen

    def _read(self, page_id: int):
        """One charged page read, tallying the disk's stat deltas."""
        stats = self._disk.stats
        seeks_before = stats.seeks
        seq_before = stats.sequential_reads
        misses_before = self._pool.stats.misses if self._pool_in_path else 0
        page = self._reader(page_id)
        self._seeks += stats.seeks - seeks_before
        self._sequential += stats.sequential_reads - seq_before
        if self._pool_in_path:
            self._cold += self._pool.stats.misses - misses_before
        return page

    def _run(self) -> Iterator[List[Record]]:
        plan = self._plan
        layout = self._layout
        rect = plan.rect
        lock = self._io_lock
        try:
            for (start, end), (first, last) in zip(
                plan.scan_runs, resolved_spans(plan, layout)
            ):
                for position in range(first, last + 1):
                    with lock:
                        page = self._read(layout.page_ids[position])
                    self._pages_pulled += 1
                    matched: List[Record] = []
                    self._over_read += scan_page(page, start, end, rect, matched)
                    self._records += len(matched)
                    yield matched
        finally:
            self._finalize()

    def _finalize(self) -> None:
        """Report the realized I/O to the recorder, exactly once.

        The guard flag + set-true pair below is the idempotence pattern
        the ``notify-once`` rule of ``repro lint`` matches: both the
        generator's ``finally`` and :meth:`close` funnel through here,
        and whichever runs second is a no-op.
        """
        if self._recorded:
            return
        self._recorded = True
        span = self._span
        span.set("seeks", self._seeks)
        span.set("sequential_reads", self._sequential)
        span.set("pages", self._seeks + self._sequential)
        span.set("over_read", self._over_read)
        span.set("records", self._records)
        span.set("drained", self.drained)
        if self._pool_in_path:
            span.set("pool_misses", self._cold)
        span.end()
        # self._started is 0.0 when metrics were off at construction;
        # skip the observation rather than record a bogus latency.
        if METRICS.enabled and self._started:
            _observe_execution(self._started, self._records, self._over_read)
        if self._recorder is not None:
            self._recorder.record_executed(
                tuple(self._plan.rect.lengths),
                seeks=self._seeks,
                pages=self._seeks + self._sequential,
                records=self._records,
                over_read=self._over_read,
                cold_misses=self._cold if self._pool_in_path else None,
            )

    def close(self) -> None:
        """Stop the stream; tallies freeze and the recorder is notified.

        Idempotent; a stream abandoned before its first page records
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
    reader:
        Page reader — ``disk.read``, or a buffer pool's ``read`` so warm
        pages never reach the disk.  Defaults to the ``pool``'s reader
        when one is given, else ``disk.read``.
    pool:
        Optional :class:`~repro.storage.buffer.BufferPool` serving warm
        pages.  Beyond supplying the default reader, a pool lets the
        executor report *cold misses* per query — the seeks that
        actually reached the disk — which is what the adaptive layer
        judges migrations on (a warm cache hides bad clustering; cold
        misses do not).
    recorder:
        Optional :class:`~repro.adaptive.WorkloadRecorder`: every
        executed plan reports its shape and realized I/O profile.
    io_lock:
        Lock held across each execution's read-and-filter pass (and
        around each streamed read).  Pass one *shared* lock when several
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
        reader: Optional[Callable[[int], Any]] = None,
        pool: Optional[BufferPool] = None,
        recorder=None,
        io_lock: Optional[threading.Lock] = None,
    ):
        self._disk = disk
        self._layout = layout
        if reader is None:
            reader = pool.read if pool is not None else disk.read
        self._reader = reader
        self._pool = pool
        # Cold misses are only meaningful when the pool actually sits in
        # the read path; an explicit reader bypassing it must report
        # None, not a fictitious "fully warm" zero.
        self._pool_in_path = pool is not None and reader == pool.read
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

    @property
    def recorder(self):
        """The workload recorder executions report to (or None)."""
        return self._recorder

    # ------------------------------------------------------------------
    # The read-and-filter pass (shared with the scatter-gather executor)
    # ------------------------------------------------------------------
    def _charged(
        self,
        scan: Callable[[Callable[[int], Any]], Any],
        page_cache: Optional[dict],
    ) -> Tuple[Any, int, int, Optional[int]]:
        """The charged-read pass: run ``scan(read)`` and measure its I/O.

        ``read`` is the executor's page reader, through the batch
        ``page_cache`` when one is given (:func:`read_page`).  Returns
        what ``scan`` returned plus the seeks and sequential reads it
        charged and the buffer pool's cold misses (None without a pool
        in the path), all under the I/O lock.
        """
        reader = self._reader
        read = (
            reader
            if page_cache is None
            else lambda page_id: read_page(reader, page_id, page_cache)
        )
        with self._io_lock:
            stats = self._disk.stats
            seeks_before = stats.seeks
            seq_before = stats.sequential_reads
            misses_before = self._pool.stats.misses if self._pool_in_path else 0
            value = scan(read)
            seeks = stats.seeks - seeks_before
            sequential = stats.sequential_reads - seq_before
            cold = (
                self._pool.stats.misses - misses_before
                if self._pool_in_path
                else None
            )
        return value, seeks, sequential, cold

    def _scan(
        self,
        runs: Sequence[Tuple[int, int]],
        spans: Sequence[Tuple[int, int]],
        rect,
        read: Callable[[int], Any],
    ) -> Tuple[List[Record], int]:
        """The filter loop: every page of every ``(scan run, page span)``
        pair, fetched through ``read`` and filtered by :func:`scan_page`.
        Returns the matched records, in key order, and the over-read."""
        page_ids = self._layout.page_ids
        records: List[Record] = []
        over_read = 0
        for (start, end), (first, last) in zip(runs, spans):
            for position in range(first, last + 1):
                over_read += scan_page(
                    read(page_ids[position]), start, end, rect, records
                )
        return records, over_read

    @staticmethod
    def _stamp(sp, result: RangeQueryResult, cold: Optional[int]) -> None:
        """Attribute an execution's I/O profile to its ``kind="io"`` span."""
        sp.set("seeks", result.seeks)
        sp.set("sequential_reads", result.sequential_reads)
        sp.set("pages", result.pages_read)
        sp.set("over_read", result.over_read)
        sp.set("records", len(result.records))
        if cold is not None:
            sp.set("pool_misses", cold)

    def _finish(
        self, started: float, plan, result: RangeQueryResult, cold: Optional[int]
    ) -> None:
        """Per-execution metrics and the workload-recorder notification."""
        if METRICS.enabled:
            _observe_execution(started, len(result.records), result.over_read)
        if self._recorder is not None:
            self._recorder.record_executed(
                plan.rect.lengths,
                seeks=result.seeks,
                pages=result.pages_read,
                records=len(result.records),
                over_read=result.over_read,
                cold_misses=cold,
            )

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------
    def execute(
        self,
        plan: QueryPlan,
        _page_cache: Optional[dict] = None,
    ) -> RangeQueryResult:
        """Run ``plan`` and return records plus the measured I/O profile.

        Each scan run is read as one sequential page sweep; the first
        page of a sweep costs a seek unless it directly follows the
        previous read (the disk's accounting, not the executor's).
        ``_page_cache`` is the batch path's shared-scan buffer: pages
        found there are served without touching the storage at all.
        """
        spans = resolved_spans(plan, self._layout)
        started = time.perf_counter() if METRICS.enabled else 0.0
        # Exactly one kind="io" span per execution: Trace.io_totals sums
        # these, and the differential suite holds the sum equal to the
        # untraced result.
        with _obs_span("execute", kind="io") as sp:
            (records, over_read), seeks, sequential, cold = self._charged(
                lambda read: self._scan(plan.scan_runs, spans, plan.rect, read),
                _page_cache,
            )
            result = RangeQueryResult(
                records=records,
                runs=len(plan.scan_runs),
                seeks=seeks,
                sequential_reads=sequential,
                over_read=over_read,
            )
            self._stamp(sp, result, cold)
            sp.set("runs", len(plan.scan_runs))
        self._finish(started, plan, result, cold)
        return result

    def stream(self, plan: QueryPlan) -> PlanStream:
        """Open a lazy page-at-a-time stream over ``plan``.

        The streaming counterpart of :meth:`execute`: same reader, same
        page sequence, identical accounting when fully drained, but one
        page of records resident at a time and early-exit on abandon.
        Each charged read takes the I/O lock.
        """
        return PlanStream(
            self._disk,
            self._layout,
            plan,
            self._reader,
            pool=self._pool,
            pool_in_path=self._pool_in_path,
            io_lock=self._io_lock,
            recorder=self._recorder,
        )

    def execute_batch(self, plans: Sequence[QueryPlan]) -> BatchResult:
        """Run a workload of plans as one shared, key-ordered scan.

        Two batch effects combine to beat the equivalent query-at-a-time
        loop: plans run sorted by first scanned key, so first-time page
        reads arrive in ascending order and inter-query seeks become
        sequential reads; and page reads are shared across the batch
        (shared-scan / multi-query optimization), so a page needed by
        several queries is read once.  Memory for the shared pages is
        bounded by the batch's distinct page footprint and is released
        when the call returns.

        Per-query results report the I/O actually incurred while that
        query ran (shared pages cost nothing), so the aggregate counters
        equal the sum over results.  Results come back in the caller's
        order, not execution order.
        """
        order = execution_order(plans)
        results: List[Optional[RangeQueryResult]] = [None] * len(plans)
        page_cache: dict = {}
        total_seeks = total_sequential = total_over = 0
        with _obs_span("execute_batch", kind="batch") as sp:
            for i in order:
                result = self.execute(plans[i], _page_cache=page_cache)
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
