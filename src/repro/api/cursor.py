"""Streaming results: the ``Cursor`` over a lazy plan stream.

A :class:`Cursor` is the memory-bounded half of the front door: instead
of materializing every matching record before returning (O(result)
residency — millions of records for a full-grid scan), it pulls pages
lazily in key order through the engine's
:class:`~repro.engine.executor.PlanStream` and yields rows one at a
time.  Peak record residency is one page, yet the page-read sequence is
exactly the one the materialized path issues, so a fully drained cursor
charges identical seeks, pages and over-read — the differential suite
in ``tests/api`` proves the equivalence across curves, shard counts and
policies.

The cursor also owns the *row* semantics of a
:class:`~repro.api.query.Query`: the predicate filters region-matched
records (without changing what is read), the projection transforms each
surviving row on yield, and a row limit stops the underlying stream as
soon as it is satisfied — pages past the limit are never read, which is
the early-exit saving the query-API benchmark measures.

Cursors are context managers (``with store.cursor(q) as cur``) and
idempotently closable; closing reports the I/O actually incurred to the
store's workload recorder, so the adaptive control plane sees streamed
queries exactly like materialized ones.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Any, Deque, Iterator, List, Optional

from ..costmodel import IOProfile
from ..engine.executor import PlanStream, Record
from .query import Query

__all__ = ["Cursor", "CursorStats", "QueryResult"]


@dataclass(frozen=True)
class CursorStats(IOProfile):
    """A point-in-time snapshot of a cursor's accounting."""

    #: Seeks charged so far (the paper's clustering cost, realized).
    seeks: int
    #: Sequential page reads charged so far.
    sequential_reads: int
    #: Records scanned but discarded in tolerated gaps.
    over_read: int
    #: Region-matched records pulled from pages (before the predicate).
    records_scanned: int
    #: Rows actually yielded (after predicate, limit and projection).
    rows_yielded: int
    #: Largest single-page record batch held at once — the peak
    #: residency bound (compare with a materialized result's length).
    peak_page_records: int
    #: True when a row limit stopped the stream before exhaustion.
    truncated: bool
    #: Buffer-pool misses (None when the store runs without a pool).
    cold_misses: Optional[int] = None


@dataclass
class QueryResult(IOProfile):
    """Materialized outcome of a rich query (predicate/limit/projection).

    The streaming analogue of
    :class:`~repro.engine.executor.RangeQueryResult`: ``rows`` carries
    projected values rather than raw records, and the I/O profile is
    whatever the (possibly early-exited) stream actually charged.
    """

    rows: List[Any]
    seeks: int
    sequential_reads: int
    over_read: int
    #: Region-matched records scanned (before the predicate).
    records_scanned: int
    #: True when a row limit stopped the scan early.
    truncated: bool = False
    #: Largest single-page batch held while streaming (O(page)).
    peak_page_records: int = 0

    def __len__(self) -> int:
        return len(self.rows)


class Cursor:
    """Lazy, key-ordered iteration over a compiled query.

    Obtained from :meth:`repro.api.SpatialStore.cursor`; iterate it,
    call :meth:`fetchmany`/:meth:`fetchall`, or drain it into a
    :class:`QueryResult` with :meth:`to_result`.  Safe to close at any
    point; a closed cursor stops yielding and freezes its stats.
    """

    def __init__(self, stream: PlanStream, query: Query):
        self._stream = stream
        self._query = query
        self._pages = iter(stream)
        self._buffer: Deque[Record] = deque()
        self._yielded = 0
        self._peak = 0
        self._truncated = False
        self._closed = False

    # ------------------------------------------------------------------
    # Iteration
    # ------------------------------------------------------------------
    def __iter__(self) -> Iterator[Any]:
        return self

    def __next__(self) -> Any:
        query = self._query
        limit = query.max_rows
        if limit is not None and self._yielded >= limit:
            self._truncated = self._truncated or self._more_possible()
            self.close()
            raise StopIteration
        if self._closed and not self._buffer:
            raise StopIteration
        while not self._buffer:
            try:
                page_records = next(self._pages)
            except StopIteration:
                self.close()
                raise
            self._peak = max(self._peak, len(page_records))
            if query.predicate is None:
                self._buffer.extend(page_records)
            else:
                try:
                    self._buffer.extend(
                        record for record in page_records if query.predicate(record)
                    )
                except BaseException:
                    # A raising user predicate abandons the stream — close
                    # so the recorder is notified deterministically (and
                    # exactly once) rather than whenever GC finalizes the
                    # underlying generator.
                    self.close()
                    raise
        record = self._buffer.popleft()
        try:
            row = query.row(record)
        except BaseException:
            # Same contract for a raising projection.
            self.close()
            raise
        self._yielded += 1
        return row

    def _more_possible(self) -> bool:
        """Did the limit stop us while rows may remain un-streamed?

        True when region-matched records are still buffered, or pages
        of the plan remain unpulled; a limit that lands exactly on the
        last record of the last page is *not* a truncation.
        """
        return bool(self._buffer) or not self._stream.drained

    def fetchmany(self, n: int) -> List[Any]:
        """Up to ``n`` more rows (fewer at the end of the result set;
        ``n <= 0`` fetches nothing)."""
        rows: List[Any] = []
        if n <= 0:
            return rows
        for row in self:
            rows.append(row)
            if len(rows) >= n:
                break
        return rows

    def fetchall(self) -> List[Any]:
        """Every remaining row (bounded by the query's limit, if any)."""
        return list(self)

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def close(self) -> None:
        """Stop streaming; the recorder is notified of the realized I/O.

        Idempotent.  Buffered rows already pulled from pages remain
        readable until the limit or the buffer runs out.
        """
        if self._closed:
            return
        self._closed = True
        self._stream.close()

    def __enter__(self) -> "Cursor":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    @property
    def closed(self) -> bool:
        """True once the underlying stream has been stopped."""
        return self._closed

    @property
    def query(self) -> Query:
        """The query this cursor streams."""
        return self._query

    @property
    def stats(self) -> CursorStats:
        """Accounting so far (final once the cursor is drained/closed)."""
        stream = self._stream
        return CursorStats(
            seeks=stream.seeks,
            sequential_reads=stream.sequential_reads,
            over_read=stream.over_read,
            records_scanned=stream.records_streamed,
            rows_yielded=self._yielded,
            peak_page_records=self._peak,
            truncated=self._truncated,
            cold_misses=stream.cold_misses,
        )

    def to_result(self) -> QueryResult:
        """Drain the cursor and package rows + realized I/O profile."""
        rows = self.fetchall()
        stats = self.stats
        return QueryResult(
            rows=rows,
            seeks=stats.seeks,
            sequential_reads=stats.sequential_reads,
            over_read=stats.over_read,
            records_scanned=stats.records_scanned,
            truncated=stats.truncated,
            peak_page_records=stats.peak_page_records,
        )
