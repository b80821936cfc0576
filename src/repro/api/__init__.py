"""``repro.api`` — one front door for every spatial store.

The serving surface of the system, unified behind three ideas:

* :class:`~repro.api.store.SpatialStore` — the protocol/ABC both
  :class:`~repro.index.SFCIndex` and
  :class:`~repro.index.ShardedSFCIndex` implement.  It hoists the
  previously duplicated facade (insert/delete/bulk-load, point
  queries, flush, planning, EXPLAIN, range queries, migration) into
  one shared base, so the two stores cannot drift, and adds the
  composable query surface on top.
* :class:`~repro.api.query.Query` — an immutable builder describing
  any read: single rects, multi-rect unions (overlap-deduplicated at
  plan time), row predicates, limits, projections and execution-policy
  hints.  Plain queries execute byte-identically to the legacy
  ``range_query`` path.
* :class:`~repro.api.cursor.Cursor` — streaming results pulled page by
  page in key order, with I/O accounting identical to materialized
  execution, O(page) peak record residency, and early exit on row
  limits.  :func:`~repro.api.knn.knn_search` (surfaced as
  :meth:`SpatialStore.knn`) answers k-nearest-neighbour queries by
  expanding curve-range search over the same machinery.

Quickstart::

    from repro import Query, SFCIndex, make_curve
    index = SFCIndex(make_curve("onion", 64, 2), page_capacity=16)
    index.bulk_load([(x, y) for x in range(64) for y in range(64)])

    query = (Query.union_of([rect_a, rect_b])
                  .where(lambda r: r.payload is None)
                  .limit(100))
    with index.cursor(query) as cur:          # streams, O(page) memory
        for row in cur:
            ...
    result = index.execute(query)             # materialized
    nearest = index.knn((10, 12), k=5)        # expanding range search
"""

from .cursor import Cursor, CursorStats, QueryResult
from .knn import KNNResult, Neighbor, knn_search
from .query import Query, RectUnion
from .store import ANY, SpatialStore, merge_plans

__all__ = [
    "ANY",
    "Cursor",
    "CursorStats",
    "KNNResult",
    "Neighbor",
    "Query",
    "QueryResult",
    "RectUnion",
    "SpatialStore",
    "knn_search",
    "merge_plans",
]
