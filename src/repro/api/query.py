"""The immutable ``Query`` builder: one way to describe any read.

The serving surface grew up around a single call shape — one
:class:`~repro.geometry.Rect` in, one fully materialized result out.
:class:`Query` replaces that with a composable description: a union of
rects, an optional row predicate, a row limit, a projection, and the
execution policy (gap tolerance) as a hint.  Queries are immutable —
every builder method returns a new object — so a query can be built
once, shared between threads, executed on any
:class:`~repro.api.store.SpatialStore`, and replayed verbatim.

Construction reads like the call sites::

    Query.rect((2, 3), (10, 11))
    Query.union_of([rect_a, rect_b]).limit(100)
    Query.rect(rect).where(lambda r: r.payload > 0).select(lambda r: r.point)
    Query.rect(rect).hint(gap_tolerance=8)

A query with no predicate, limit or projection is *plain*: stores
execute it through exactly the legacy plan/execute path, so the old
``range_query`` facade keeps returning byte-identical results.

:class:`RectUnion` is the region a multi-rect query scans: it
duck-types the :class:`~repro.geometry.Rect` surface the engine's
filter and telemetry touch (``contains``, ``lengths``, ``dim``), so a
merged :class:`~repro.engine.plan.QueryPlan` over a union flows through
the executors unchanged.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Any, Callable, Iterable, Optional, Tuple, Union

from ..engine.executor import Record
from ..engine.plan import ExecutionPolicy
from ..errors import InvalidQueryError
from ..geometry import Cell, Rect

__all__ = ["Query", "RectUnion", "Predicate", "Projection"]

#: A row filter: records failing it are dropped after the region filter
#: (they still count as scanned I/O — the predicate is not pushed into
#: the page reads).
Predicate = Callable[[Record], bool]

#: A row transform applied to each surviving record as it is yielded.
Projection = Callable[[Record], Any]


@dataclass(frozen=True)
class RectUnion:
    """A union of axis-aligned rects — the region of a multi-rect query.

    Covers exactly the cells contained in at least one member rect.
    Duck-types the part of the :class:`~repro.geometry.Rect` surface the
    engine touches: ``contains`` (the executor's filter of gap-merged
    runs), ``lengths`` and ``dim`` (bounding-box telemetry for the
    workload recorder).
    """

    rects: Tuple[Rect, ...]

    def __post_init__(self) -> None:
        if not self.rects:
            raise InvalidQueryError("a rect union needs at least one rect")
        dim = self.rects[0].dim
        if any(rect.dim != dim for rect in self.rects):
            raise InvalidQueryError(
                f"union rects must share a dimension, got {self.rects}"
            )

    @property
    def dim(self) -> int:
        """Number of dimensions (shared by every member rect)."""
        return self.rects[0].dim

    @property
    def lo(self) -> Cell:
        """Lowest corner of the bounding box."""
        return tuple(
            min(rect.lo[axis] for rect in self.rects) for axis in range(self.dim)
        )

    @property
    def hi(self) -> Cell:
        """Highest corner of the bounding box."""
        return tuple(
            max(rect.hi[axis] for rect in self.rects) for axis in range(self.dim)
        )

    @property
    def lengths(self) -> Tuple[int, ...]:
        """Bounding-box side lengths (the recorder's shape telemetry)."""
        return tuple(h - l + 1 for l, h in zip(self.lo, self.hi))

    def contains(self, cell) -> bool:
        """True when ``cell`` lies inside at least one member rect."""
        return any(rect.contains(cell) for rect in self.rects)

    def fits_in(self, side: int) -> bool:
        """True when every member rect fits the universe."""
        return all(rect.fits_in(side) for rect in self.rects)

    def __str__(self) -> str:
        return " ∪ ".join(str(rect) for rect in self.rects)


@dataclass(frozen=True)
class Query:
    """An immutable, composable description of one read.

    Build with :meth:`rect` or :meth:`union_of`, refine with the
    chainable :meth:`where` / :meth:`limit` / :meth:`select` /
    :meth:`hint`, then hand to
    :meth:`~repro.api.store.SpatialStore.execute` (materialized) or
    :meth:`~repro.api.store.SpatialStore.cursor` (streaming).
    """

    rects: Tuple[Rect, ...]
    predicate: Optional[Predicate] = None
    #: Row limit (``None``: unbounded).  Set with :meth:`limit`.
    max_rows: Optional[int] = None
    projection: Optional[Projection] = None
    policy: ExecutionPolicy = field(default_factory=ExecutionPolicy)

    def __post_init__(self) -> None:
        if not self.rects:
            raise InvalidQueryError("a query needs at least one rect")
        dim = self.rects[0].dim
        if any(rect.dim != dim for rect in self.rects):
            raise InvalidQueryError(
                f"query rects must share a dimension, got {self.rects}"
            )
        if self.max_rows is not None and self.max_rows < 0:
            raise InvalidQueryError(f"limit must be >= 0, got {self.max_rows}")

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    @classmethod
    def rect(cls, lo, hi=None) -> "Query":
        """A single-rect query: ``Query.rect(rect)`` or ``Query.rect(lo, hi)``."""
        if hi is None:
            if not isinstance(lo, Rect):
                raise InvalidQueryError(
                    f"Query.rect(x) needs a Rect, got {lo!r}; "
                    "or pass lo and hi corners"
                )
            return cls(rects=(lo,))
        return cls(rects=(Rect(tuple(lo), tuple(hi)),))

    @classmethod
    def union_of(cls, rects: Iterable[Rect]) -> "Query":
        """A query over the union of ``rects`` (each record returned once)."""
        return cls(rects=tuple(rects))

    @classmethod
    def of(cls, value: Union["Query", Rect]) -> "Query":
        """Coerce ``value`` (a Query or a bare Rect) into a Query."""
        if isinstance(value, Query):
            return value
        if isinstance(value, Rect):
            return cls(rects=(value,))
        raise InvalidQueryError(f"expected a Query or Rect, got {value!r}")

    # ------------------------------------------------------------------
    # Chainable refinement (each returns a new Query)
    # ------------------------------------------------------------------
    def where(self, predicate: Predicate) -> "Query":
        """Keep only records passing ``predicate`` (composes with a prior
        ``where`` conjunctively).  Filtering happens after the region
        filter and does not change what is read from disk."""
        previous = self.predicate
        combined = (
            predicate
            if previous is None
            else (lambda record: previous(record) and predicate(record))
        )
        return replace(self, predicate=combined)

    def limit(self, n: int) -> "Query":
        """Stop after ``n`` rows; streaming execution stops reading pages
        as soon as the limit is reached (early exit)."""
        if n is not None and n < 0:
            raise InvalidQueryError(f"limit must be >= 0, got {n}")
        return replace(self, max_rows=n)

    def select(self, projection: Projection) -> "Query":
        """Transform each surviving record with ``projection`` on yield."""
        return replace(self, projection=projection)

    def hint(
        self,
        gap_tolerance: Optional[int] = None,
        policy: Optional[ExecutionPolicy] = None,
    ) -> "Query":
        """Attach an execution hint: a ``gap_tolerance`` convenience or a
        full :class:`~repro.engine.plan.ExecutionPolicy` (policy wins)."""
        if policy is None:
            policy = ExecutionPolicy(
                gap_tolerance=0 if gap_tolerance is None else gap_tolerance
            )
        return replace(self, policy=policy)

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def dim(self) -> int:
        """Number of dimensions (shared by every rect)."""
        return self.rects[0].dim

    @property
    def is_plain(self) -> bool:
        """True when the query is a bare region scan — no predicate,
        limit or projection — and can run through the legacy
        plan/execute path byte-for-byte."""
        return (
            self.predicate is None
            and self.max_rows is None
            and self.projection is None
        )

    @property
    def region(self) -> Union[Rect, RectUnion]:
        """The scanned region: the rect itself, or the union."""
        if len(self.rects) == 1:
            return self.rects[0]
        return RectUnion(self.rects)

    def row(self, record: Record):
        """Apply the projection (if any) to one surviving record."""
        return record if self.projection is None else self.projection(record)

    def admits(self, record: Record) -> bool:
        """Apply the predicate (if any) to one region-matched record."""
        return self.predicate is None or self.predicate(record)
