"""Immutable query plans: what a range query *will* do, before any I/O.

A :class:`QueryPlan` is the planner's output and the executor's input: the
query's exact key runs under the curve, the runs actually scanned after
the :class:`ExecutionPolicy`'s gap merging, and — when the plan was built
against a flushed :class:`PageLayout` — the inclusive page span each scan
run touches.  From the spans the plan predicts the seek/sequential-read
split of its own execution (`estimated_seeks` replays the disk's head
rule), which is the paper's clustering story made operational: for
page-aligned layouts ``estimated_seeks`` equals the clustering number.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field
from typing import Any, List, Optional, Sequence, Tuple

import numpy as np

from ..curves.base import SpaceFillingCurve
from ..errors import InvalidQueryError
from ..geometry import Rect
from ..storage.disk import replay_reads
from .cost import DEFAULT_COST_MODEL, CostModel

__all__ = ["ExecutionPolicy", "PageLayout", "QueryPlan", "KeyRun", "PageSpan", "key_column"]

KeyRun = Tuple[int, int]  # inclusive (start_key, end_key)
PageSpan = Tuple[int, int]  # inclusive (first, last) positions in a PageLayout


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


def key_column(keys: Sequence[int]) -> np.ndarray:
    """The key column of ascending curve ``keys``: ``int64`` when every
    key is below :data:`_INT64_MAX`, else exact Python ints (``object``);
    numpy would infer ``uint64`` or ``float64`` for larger keys."""
    exact = not keys or keys[-1] < _INT64_MAX
    return np.array(keys, dtype=np.int64 if exact else object)


@dataclass
class PageLayout:
    """The flushed layout: a key column and a record column, in key order.

    ``keys[i]`` is the curve key of ``records[i]``.  Page ``p`` holds
    the records ``[p * capacity, (p + 1) * capacity)``, so a run's
    records are one slice of ``records`` and its pages follow from the
    slice's ends.

    The layout owns its pages: ``pages[p]`` is the sized
    :class:`~repro.engine.executor.Page` stored under ``page_ids[p]``,
    which the :class:`~repro.storage.disk.SimulatedDisk` holds only
    weakly.  A superseded layout's pages are therefore freed when its
    last reader (a store snapshot, an executor, an open cursor) drops
    it, leaving an 80-byte dead weakref under each never-reused id.
    """

    capacity: int
    keys: np.ndarray
    records: Tuple[Any, ...]
    page_ids: List[int] = field(default_factory=list)
    pages: List[Any] = field(default_factory=list)

    @property
    def num_pages(self) -> int:
        """Number of pages in the layout."""
        return len(self.page_ids)

    def bounds(self, runs: Sequence[KeyRun]) -> Tuple[List[int], List[int]]:
        """``(lo, hi)``: run ``i``'s records are ``records[lo[i]:hi[i]]``.

        One search of the key column for every run start and one for
        every run end.
        """
        if not runs:
            return [], []
        starts, ends = zip(*runs)
        keys = self.keys
        if keys.dtype != object and max(ends) > _INT64_MAX:
            starts = tuple(min(key, _INT64_MAX) for key in starts)
            ends = tuple(min(key, _INT64_MAX) for key in ends)
        lo = keys.searchsorted(starts, side="left")
        hi = keys.searchsorted(ends, side="right")
        return lo.tolist(), hi.tolist()

    def span(self, start: int, end: int) -> PageSpan:
        """The :meth:`spans` entry of the one run ``[start, end]``."""
        return self.spans(((start, end),))[0]

    def spans(self, runs: Sequence[KeyRun]) -> Tuple[PageSpan, ...]:
        """Inclusive page positions each key run touches, in order.

        Exact on both ends: the first page holds the run's first record
        (so duplicate keys spilling past a page boundary are found
        without reading the previous page) and the last page holds its
        last.  A run over a gap inside one page reads that page; a run
        past the largest key reads nothing.  An empty span (``last <
        first``) means no pages hold keys of the run.  The single
        statement of span resolution, shared by planned, merged,
        scattered and layout-free plans.
        """
        cap = self.capacity
        size = len(self.keys)
        num_pages = self.num_pages
        lo, hi = self.bounds(runs)
        return tuple(
            (num_pages if start == size else start // cap, (end - 1) // cap)
            for start, end in zip(lo, hi)
        )


@dataclass(frozen=True)
class QueryPlan:
    """An immutable, executable description of one range query.

    Produced by :class:`~repro.engine.planner.Planner`; executed by
    :class:`~repro.engine.executor.Executor`.  All sequence fields are
    tuples, so plans are safe to cache and share.
    """

    curve: SpaceFillingCurve
    rect: Rect
    policy: ExecutionPolicy
    #: The query's exact key runs; ``len(runs)`` is its clustering number.
    runs: Tuple[KeyRun, ...]
    #: Runs actually scanned, after the policy's gap merging.
    scan_runs: Tuple[KeyRun, ...]
    #: Per-scan-run page spans, or ``None`` for layout-free plans.
    page_spans: Optional[Tuple[PageSpan, ...]] = None
    cost_model: CostModel = DEFAULT_COST_MODEL

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

    @functools.cached_property
    def scan_exact(self) -> Tuple[bool, ...]:
        """Per scan run: True when it is one of the exact ``runs``.

        An exact scan run holds only keys of cells inside the query (for
        a clipped shard fragment, the clip of an exact run still does),
        so the executor slices its records by key with no geometric
        test.  A gap-merged run — or a clipped piece of one — can hold
        tolerated-gap cells and is filtered by :attr:`rect`.  Cached on
        the (immutable) plan, so a cached plan computes it once.
        """
        exact = set(self.runs)
        return tuple(run in exact for run in self.scan_runs)

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
        if self.page_spans is None:
            # Layout-free plan: the paper's pure model, one seek per run.
            return len(self.scan_runs), 0
        return replay_reads(self.page_spans)

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
        """Predicted simulated time under ``cost_model`` (plan's by default)."""
        model = cost_model or self.cost_model
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
