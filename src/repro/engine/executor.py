"""The executor: runs query plans against the paged storage.

Execution is the only part of a range query that touches the (simulated)
disk: the plan says which pages each scan run covers, the executor reads
them — through the buffer pool when one is configured — filters records,
and reports the measured I/O profile as a :class:`RangeQueryResult`.

Every execution — :meth:`Executor.execute`, the scatter–gather
``execute`` and a :class:`PlanStream` — charges its page reads through
:meth:`Executor._charged` and reports them once, through
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
from typing import Any, Callable, Iterator, List, Optional, Sequence, Tuple

from ..costmodel import IOProfile
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
    executor.  Iterating the stream yields one list of region-matched
    records per page read, in key order.  Each page is charged by
    :meth:`Executor._charged`, one page per call under the executor's
    I/O lock, along the run/span walk :meth:`Executor.execute` takes, so
    a fully drained stream charges identical seeks, sequential reads and
    over-read — the differential suites in ``tests/api`` prove the
    equivalence.  An abandoned stream charges only the pages it actually
    pulled, which is where a row limit's early-exit saving comes from.

    Peak record residency is one page: nothing is accumulated across
    pages.  The stream reports exactly once, through
    :meth:`Executor._report`, when it finishes or is closed, with the
    I/O actually incurred.
    """

    def __init__(self, executor: "Executor", plan: QueryPlan):
        self._executor = executor
        self._plan = plan
        self._seeks = 0
        self._sequential = 0
        self._over_read = 0
        self._records = 0
        self._cold = 0
        self._recorded = False
        self._spans = resolved_spans(plan, executor.layout)
        self._total_pages = sum(
            last - first + 1 for first, last in self._spans if last >= first
        )
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
        """Region-matched records yielded so far."""
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
        plan = self._plan
        rect = plan.rect
        charged = self._executor._charged
        page_ids = self._executor.layout.page_ids
        try:
            for (start, end), (first, last) in zip(plan.scan_runs, self._spans):
                for position in range(first, last + 1):
                    page_id = page_ids[position]
                    page, seeks, sequential, cold = charged(
                        lambda read: read(page_id), None
                    )
                    self._seeks += seeks
                    self._sequential += sequential
                    if cold is not None:
                        self._cold += cold
                    self._pages_pulled += 1
                    matched: List[Record] = []
                    self._over_read += scan_page(page, start, end, rect, matched)
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
        execution reports its *cold misses* — the seeks that actually
        reached the disk — which is what the adaptive layer judges
        migrations on (a warm cache hides bad clustering; cold misses do
        not).  Without one, pages are read straight from ``disk``.
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

    @property
    def recorder(self):
        """The workload recorder executions report to (or None)."""
        return self._recorder

    # ------------------------------------------------------------------
    # The read pass and the report (shared by every execution)
    # ------------------------------------------------------------------
    def _charged(
        self,
        scan: Callable[[Callable[[int], Any]], Any],
        page_cache: Optional[dict],
    ) -> Tuple[Any, int, int, Optional[int]]:
        """The charged-read pass: run ``scan(read)`` and measure its I/O.

        ``read`` is the executor's page reader.  With a batch
        ``page_cache`` it is the shared-scan read protocol: a cached
        page is served without touching storage, a miss is read once and
        shared.  Returns what ``scan`` returned plus the seeks and
        sequential reads it charged and the buffer pool's cold misses
        (None without a pool), all under the I/O lock.
        """
        read = self._reader
        if page_cache is not None:
            reader, cache = read, page_cache

            def shared_read(page_id: int) -> Any:
                page = cache.get(page_id)
                if page is None:
                    page = cache[page_id] = reader(page_id)
                return page

            read = shared_read
        pool = self._pool
        with self._io_lock:
            stats = self._disk.stats
            seeks_before = stats.seeks
            seq_before = stats.sequential_reads
            misses_before = pool.stats.misses if pool is not None else 0
            value = scan(read)
            seeks = stats.seeks - seeks_before
            sequential = stats.sequential_reads - seq_before
            cold = pool.stats.misses - misses_before if pool is not None else None
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
        ``sp``, observes the execution metrics, and notifies the
        workload recorder.  ``started`` is 0.0 when metrics were off as
        the execution began: it then has no start to time from, and
        records no metrics even if they were switched on meanwhile.
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
            if records:
                _QUERY_RECORDS.inc(records)
            if over_read:
                _QUERY_OVER_READ.inc(over_read)
            _QUERY_LATENCY.observe(time.perf_counter() - started)
        if self._recorder is not None:
            self._recorder.record_executed(
                plan.rect.lengths,
                seeks=seeks,
                pages=pages,
                records=records,
                over_read=over_read,
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
