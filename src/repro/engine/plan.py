"""Immutable query plans: what a range query *will* do, before any I/O.

A :class:`QueryPlan` is the planner's output and the executor's input: the
query's exact key runs under the curve, the runs actually scanned after
the :class:`ExecutionPolicy`'s gap merging, and — when the plan was built
against a flushed :class:`PageLayout` — the record positions of both,
from the searches of the key column :meth:`PageLayout.resolve` makes,
and with the scan runs' positions the inclusive page span each scan run
touches.  From the spans the plan predicts the seek/sequential-read
split of its own execution (`estimated_seeks` replays the disk's head
rule), which is the paper's clustering story made operational: for
page-aligned layouts ``estimated_seeks`` equals the clustering number.
The executor reads the scan runs' pages and slices the record column at
the exact runs' positions, so a plan searches the key column only when
it is planned, however often it runs.
"""

from __future__ import annotations

import functools
from array import array
from itertools import chain
from dataclasses import dataclass, field
from typing import Any, List, Optional, Sequence, Tuple, Union

import numpy as np

from ..curves.base import SpaceFillingCurve
from ..errors import InvalidQueryError
from ..geometry import Rect
from ..storage.disk import replay_reads
from .cost import DEFAULT_COST_MODEL, CostModel

__all__ = [
    "ExecutionPolicy", "PageLayout", "Positions", "QueryPlan", "KeyRun", "PageSpan",
    "key_column",
]

KeyRun = Tuple[int, int]  # inclusive (start_key, end_key)
PageSpan = Tuple[int, int]  # inclusive (first, last) positions in a PageLayout


def _page_spans(lo: array, hi: array, capacity: int, size: int) -> Tuple[PageSpan, ...]:
    """The page span of each run at record positions ``[lo[i], hi[i])``
    in a layout of ``size`` records: ``lo // capacity`` to
    ``(hi - 1) // capacity``, and empty past the last record."""
    past_end = -(-size // capacity)  # the number of pages
    return tuple(
        (past_end if start == size else start // capacity, (end - 1) // capacity)
        for start, end in zip(lo, hi)
    )


@dataclass(frozen=True, eq=False)
class Positions:
    """A plan's runs resolved against one layout
    (:meth:`PageLayout.resolve`), stored by the plan in place of page
    spans.

    Scan run ``i``'s records are ``records[lo[i]:hi[i]]``; its page span
    follows from them (:meth:`spans`).  ``pages`` is every scan run's
    span concatenated: the page positions the plan's scan reads, in
    order.  Exact run ``j``'s records are
    ``records[exact_lo[j]:exact_hi[j]]``, and they are the records an
    execution returns: a record lies in the query exactly when its key
    lies in one of the exact runs (CONTRIBUTING invariant 14).  When no
    gap was merged, ``exact_lo`` and ``exact_hi`` are ``lo`` and ``hi``
    themselves.  Every column is an ``array('q')``, compact and never
    mutated.

    ``keys`` is the layout's key column.
    :func:`~repro.api.store.pack_columns` allocates every layout's key
    column fresh, so comparing it by identity tells whether the
    positions belong to a given layout, without keeping the layout's
    pages alive.  Positions compare, and hash, as the spans they imply,
    so plans compare exactly as they did when they stored spans.
    """

    __slots__ = ("keys", "capacity", "lo", "hi", "pages", "exact_lo", "exact_hi")

    keys: np.ndarray
    capacity: int
    lo: array
    hi: array
    pages: array
    exact_lo: array
    exact_hi: array

    def spans(self) -> Tuple[PageSpan, ...]:
        """The inclusive page span of each scan run, in order (see
        :meth:`PageLayout.resolve`)."""
        return _page_spans(self.lo, self.hi, self.capacity, len(self.keys))

    @property
    def scanned(self) -> int:
        """The records the scan runs hold: what an execution reads."""
        return sum(self.hi) - sum(self.lo)

    @property
    def returned(self) -> int:
        """The records the exact runs hold: what an execution returns.
        The rest of :attr:`scanned` is its over-read, the records in
        tolerated gaps."""
        return sum(self.exact_hi) - sum(self.exact_lo)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Positions):
            return NotImplemented
        return self.spans() == other.spans()

    def __hash__(self) -> int:
        return hash(self.spans())


@dataclass(frozen=True)
class ExecutionPolicy:
    """How a plan trades seeks for over-read.

    ``gap_tolerance > 0`` enables the relaxed retrieval model from the
    paper's related work (Asano et al.): key runs separated by at most
    that many keys are merged and scanned as one, trading over-read
    records for fewer seeks.  Policies are immutable and hashable, so
    they key the plan cache alongside the curve and the rect.
    """

    gap_tolerance: int = 0

    def __post_init__(self) -> None:
        if self.gap_tolerance < 0:
            raise InvalidQueryError(
                f"gap_tolerance must be >= 0, got {self.gap_tolerance}"
            )


#: The largest int64.  An int64 key column holds only keys below it (see
#: :func:`key_column`), so a run bound clamped to it searches exactly.
_INT64_MAX = 2**63 - 1


def key_column(keys: Union[Sequence[int], np.ndarray]) -> np.ndarray:
    """The key column of ascending curve ``keys`` (a list, or a merged
    column): ``int64`` when every key is below :data:`_INT64_MAX`, else
    exact Python ints (``object``); numpy would infer ``uint64`` or
    ``float64`` for larger keys."""
    exact = len(keys) == 0 or keys[-1] < _INT64_MAX
    return np.array(keys, dtype=np.int64 if exact else object)


@dataclass
class PageLayout:
    """The flushed layout: a key column and a record column, in key order.

    ``keys[i]`` is the curve key of ``records[i]``.  Page ``p`` holds
    the records ``[p * capacity, (p + 1) * capacity)``, so a run's
    records are one slice of ``records`` and its pages follow from the
    slice's ends.  ``records`` is a list that no code changes after it
    is built (CONTRIBUTING invariant 14): a flush's merge, a bulk load
    and a migration cutover each build a new one, so a reader still
    holding a superseded layout, or the base it shares its columns
    with, reads them as they were.

    The layout owns its pages: ``pages[p]`` is the sized
    :class:`~repro.engine.executor.Page` stored under ``page_ids[p]``,
    which the :class:`~repro.storage.disk.SimulatedDisk` holds only
    weakly.  The ids are consecutive, from one allocation, and the full
    pages share one ``Page`` object, so a layout holds at most two: that
    one and a short last page.  A superseded layout's pages are freed
    when its last reader (a store snapshot, an executor, an open cursor)
    drops it, leaving one dead weakref per page object and an 8-byte
    slot under each never-reused id.
    """

    capacity: int
    keys: np.ndarray
    records: List[Any]
    page_ids: List[int] = field(default_factory=list)
    pages: List[Any] = field(default_factory=list)

    @property
    def num_pages(self) -> int:
        """Number of pages in the layout."""
        return len(self.page_ids)

    def bounds(self, runs: Sequence[KeyRun]) -> Tuple[array, array]:
        """``(lo, hi)``: run ``i``'s records are ``records[lo[i]:hi[i]]``.

        The run starts and ends become one array, in one conversion, and
        the key column is searched once for the starts and once for the
        ends; returned as two ``array('q')``.  An ``object`` key column
        searches the exact Python ints.  An ``int64`` column holds only
        keys below :data:`_INT64_MAX`, so a bound past it is clamped to
        it and still searches exactly.
        """
        keys = self.keys
        count = 2 * len(runs)
        if keys.dtype == object:
            edges = np.fromiter(chain.from_iterable(runs), dtype=object, count=count)
        else:
            try:
                edges = np.fromiter(
                    chain.from_iterable(runs), dtype=np.int64, count=count
                )
            except OverflowError:  # a bound past int64
                edges = np.fromiter(
                    (min(key, _INT64_MAX) for key in chain.from_iterable(runs)),
                    dtype=np.int64,
                    count=count,
                )
        lo = keys.searchsorted(edges[0::2], side="left")
        hi = keys.searchsorted(edges[1::2], side="right")
        return (
            array("q", lo.astype(np.int64, copy=False).tobytes()),
            array("q", hi.astype(np.int64, copy=False).tobytes()),
        )

    def resolve(self, scan_runs: Sequence[KeyRun], runs: Sequence[KeyRun]) -> Positions:
        """The record positions of the ``scan_runs`` and of the exact
        ``runs`` they cover, and the pages the scan runs span, from one
        :meth:`bounds` search per run list and one loop over the scan
        runs' positions.

        When no gap was merged (``scan_runs == runs``) the exact runs'
        positions are the scan runs' own arrays, with no second search.
        A scan run's page span is exact on both ends: the first page
        holds the run's first record (so duplicate keys spilling past a
        page boundary are found without reading the previous page) and
        the last page holds its last.  A run over a gap inside one page
        reads that page; a run past the largest key reads nothing.  An
        empty span (``last < first``) means no pages hold keys of the
        run.  The loop extends the page list with each run's span as it
        computes it, under the rule :meth:`Positions.spans` states.  The
        single statement of run resolution, shared by planned, merged
        and scattered plans, and by an executor resolving a layout-free
        plan, or one planned against another layout, on the spot
        (:meth:`QueryPlan.positions_in`).
        """
        lo, hi = self.bounds(scan_runs)
        capacity, size = self.capacity, len(self.keys)
        pages: List[int] = []
        for start, end in zip(lo, hi):
            if start == size:  # past the largest key
                continue
            first, last = start // capacity, (end - 1) // capacity
            if first == last:  # most runs: one page, with no range to build
                pages.append(first)
            else:
                pages += range(first, last + 1)
        exact_lo, exact_hi = (lo, hi) if scan_runs == runs else self.bounds(runs)
        return Positions(self.keys, capacity, lo, hi, array("q", pages), exact_lo, exact_hi)

    def span(self, start: int, end: int) -> PageSpan:
        """The :meth:`spans` entry of the one run ``[start, end]``."""
        return self.spans(((start, end),))[0]

    def spans(self, runs: Sequence[KeyRun]) -> Tuple[PageSpan, ...]:
        """Inclusive page positions each key run touches, in order: the
        spans of :meth:`resolve`."""
        return self.resolve(runs, runs).spans()


@dataclass(frozen=True)
class QueryPlan:
    """An immutable, executable description of one range query.

    Produced by :class:`~repro.engine.planner.Planner`; executed by
    :class:`~repro.engine.executor.Executor`.  All sequence fields are
    tuples, and nothing mutates the arrays of :class:`Positions`, so
    plans are safe to cache and share.
    """

    curve: SpaceFillingCurve
    rect: Rect
    policy: ExecutionPolicy
    #: The query's exact key runs; ``len(runs)`` is its clustering number.
    runs: Tuple[KeyRun, ...]
    #: Runs actually scanned, after the policy's gap merging.
    scan_runs: Tuple[KeyRun, ...]
    #: The scan and exact runs resolved against a layout, or ``None``
    #: for layout-free plans.
    positions: Optional[Positions] = field(default=None, repr=False)

    @property
    def page_spans(self) -> Optional[Tuple[PageSpan, ...]]:
        """Per-scan-run page spans, or ``None`` for layout-free plans."""
        return None if self.positions is None else self.positions.spans()

    def positions_in(self, layout: PageLayout) -> Positions:
        """The scan runs' and exact runs' positions in ``layout``.

        The carried :attr:`positions` when the plan was resolved against
        ``layout`` (the identity of its key column), else
        :meth:`PageLayout.resolve` on the spot: for a layout-free plan,
        or one planned against a layout a flush has since replaced,
        whose positions would read the wrong pages and slice the wrong
        records.
        """
        positions = self.positions
        if positions is not None and positions.keys is layout.keys:
            return positions
        return layout.resolve(self.scan_runs, self.runs)

    # ------------------------------------------------------------------
    # Shape
    # ------------------------------------------------------------------
    @property
    def clustering(self) -> int:
        """The query's clustering number under the curve (``c(q, π)``)."""
        return len(self.runs)

    @property
    def num_scan_runs(self) -> int:
        """Number of sequential scans the executor will perform."""
        return len(self.scan_runs)

    @property
    def first_key(self) -> Optional[int]:
        """Lowest key the plan scans (batch-ordering key); None if empty."""
        return self.scan_runs[0][0] if self.scan_runs else None

    @property
    def gap_cells(self) -> int:
        """Tolerated gap keys the merged runs cover beyond the exact runs.

        An upper bound on over-read *cells*; the actual over-read record
        count depends on how many of those cells hold data.
        """
        exact = sum(end - start + 1 for start, end in self.runs)
        merged = sum(end - start + 1 for start, end in self.scan_runs)
        return merged - exact

    # ------------------------------------------------------------------
    # Cost prediction
    # ------------------------------------------------------------------
    @functools.cached_property
    def _predicted_reads(self) -> Tuple[int, int]:
        """``(seeks, sequential_reads)`` predicted for a parked head.

        Replays :func:`repro.storage.disk.replay_reads` — the disk's own
        accounting rule — over the page spans, cached on the (immutable)
        plan so repeated property reads don't re-walk every page.
        """
        if self.positions is None:
            # Layout-free plan: the paper's pure model, one seek per run.
            return len(self.scan_runs), 0
        return replay_reads(self.positions.spans())

    @property
    def estimated_seeks(self) -> int:
        """Predicted seeks of executing this plan on a parked head.

        For a flushed index whose runs are page-aligned this equals the
        clustering number — the paper's cost predictor.
        """
        return self._predicted_reads[0]

    @property
    def estimated_sequential_reads(self) -> int:
        """Predicted sequential page reads."""
        return self._predicted_reads[1]

    @property
    def estimated_pages(self) -> int:
        """Predicted total pages touched."""
        seeks, sequential = self._predicted_reads
        return seeks + sequential

    def estimated_cost(self, cost_model: Optional[CostModel] = None) -> float:
        """Predicted simulated time under ``cost_model`` (the
        :data:`~repro.engine.cost.DEFAULT_COST_MODEL` by default), which
        prices an execution's measured reads the same way."""
        model = cost_model or DEFAULT_COST_MODEL
        return model.io_cost(*self._predicted_reads)

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def explain(self, max_runs: int = 8) -> str:
        """Human-readable plan, one line per scan run (EXPLAIN output)."""
        seeks, sequential = self._predicted_reads
        lines = [
            f"QueryPlan for {self.rect} on {self.curve!r}",
            f"  policy:           {self.policy}",
            f"  clustering:       {self.clustering} exact run(s)",
            f"  scan runs:        {self.num_scan_runs}"
            + (f" (merged, {self.gap_cells} tolerated gap cells)"
               if self.num_scan_runs != self.clustering or self.gap_cells else ""),
            f"  estimated seeks:  {seeks}",
            f"  estimated pages:  {seeks + sequential} "
            f"({sequential} sequential)",
            f"  estimated cost:   {self.estimated_cost():.1f} sim-ms",
        ]
        spans = self.page_spans or (None,) * len(self.scan_runs)
        for i, ((start, end), span) in enumerate(zip(self.scan_runs, spans)):
            if i == max_runs:
                lines.append(f"  … {len(self.scan_runs) - max_runs} more run(s)")
                break
            where = "no layout" if span is None else (
                "no pages" if span[1] < span[0] else f"pages [{span[0]}, {span[1]}]"
            )
            lines.append(f"  run {i}: keys [{start}, {end}]  ({where})")
        return "\n".join(lines)
