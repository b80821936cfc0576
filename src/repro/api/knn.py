"""k-nearest-neighbour search over the curve-keyed page layout.

The classic SFC workload beyond ranges: because nearby cells tend to
share key runs, a kNN query can be answered by *expanding range
search* — scan a small box around the query point, and only grow it
when the ``k``-th best candidate is not yet provably inside.  Each
expansion runs through the store's ordinary plan/execute path, so every
box is planned (epoch-cached), priced by the cost model, charged on the
simulated disk and reported to the workload recorder like any range
query.

Correctness rests on the box guarantee: every cell outside the box of
Chebyshev radius ``r`` has L∞ distance > ``r`` from the query point,
hence Euclidean and Manhattan distance > ``r`` too (both dominate L∞).
So once ``k`` candidates sit within distance ``r``, no unscanned record
can displace them.  Radii double each round, bounding the search at
O(log side) expansions; differential tests check every configuration
against a brute-force oracle in 2-d and 3-d.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass
from typing import Sequence, Tuple

from ..costmodel import IOProfile
from ..engine.executor import Record
from ..errors import InvalidQueryError
from ..geometry import Rect, check_cell
from ..obs.metrics import METRICS as _OBS_METRICS
from ..obs.trace import span as _obs_span
from .query import Query

__all__ = ["KNNResult", "Neighbor", "knn_search"]

#: Supported distance metrics (all dominate L∞, which is what the
#: expanding-box stopping rule requires).
METRICS = ("euclidean", "manhattan", "chebyshev")

_KNN_QUERIES = _OBS_METRICS.counter("repro_knn_queries_total", "kNN searches served")
_KNN_EXPANSIONS = _OBS_METRICS.counter(
    "repro_knn_expansions_total", "box expansions across all kNN searches"
)
_KNN_LATENCY = _OBS_METRICS.histogram(
    "repro_knn_latency_seconds", "wall time of one kNN search"
)


def _distance(a: Sequence[int], b: Sequence[int], metric: str) -> float:
    deltas = [abs(int(x) - int(y)) for x, y in zip(a, b)]
    if metric == "euclidean":
        return math.sqrt(sum(d * d for d in deltas))
    if metric == "manhattan":
        return float(sum(deltas))
    return float(max(deltas))


@dataclass(frozen=True)
class Neighbor:
    """One kNN answer: a stored record and its distance to the query."""

    record: Record
    distance: float


@dataclass(frozen=True)
class KNNResult(IOProfile):
    """The ``k`` nearest records plus the search's simulated I/O profile."""

    #: Query point the distances are measured from.
    point: Tuple[int, ...]
    #: Neighbours in ascending ``(distance, point)`` order; fewer than
    #: ``k`` only when the store holds fewer records.
    neighbors: Tuple[Neighbor, ...]
    metric: str
    #: Seeks charged across all expansions.
    seeks: int
    #: Sequential page reads charged across all expansions.
    sequential_reads: int
    #: Box expansions performed (O(log side) by construction).
    expansions: int
    #: Records pulled from pages across all expansions (incl. re-scans).
    records_scanned: int

    def __len__(self) -> int:
        return len(self.neighbors)

    @property
    def records(self) -> Tuple[Record, ...]:
        """The neighbour records, nearest first."""
        return tuple(neighbor.record for neighbor in self.neighbors)

    @property
    def distances(self) -> Tuple[float, ...]:
        """The neighbour distances, ascending."""
        return tuple(neighbor.distance for neighbor in self.neighbors)


def knn_search(store, point: Sequence[int], k: int, metric: str = "euclidean"):
    """The ``k`` records of ``store`` nearest to ``point`` under ``metric``.

    Expanding curve-range search: scan the box of Chebyshev radius
    ``r`` around ``point`` (clipped to the universe) through the
    store's query path, keep the best ``k`` candidates, and stop once
    the ``k``-th best distance is ``<= r`` (nothing outside the box can
    beat it) or the box covers the whole universe.  Ties break on the
    candidate's cell coordinates, so results are deterministic across
    stores and shard counts.
    """
    if k < 0:
        raise InvalidQueryError(f"k must be >= 0, got {k}")
    if metric not in METRICS:
        raise InvalidQueryError(f"metric must be one of {METRICS}, got {metric!r}")
    curve = store.curve
    side, dim = curve.side, curve.dim
    cell = check_cell(point, side, dim)

    seeks = sequential = expansions = scanned = 0
    best: Tuple[Tuple[float, Tuple[int, ...], Record], ...] = ()
    started = time.perf_counter() if _OBS_METRICS.enabled else 0.0
    with _obs_span("knn", kind="query") as sp:
        if k > 0:
            radius = 1
            while True:
                lo = tuple(max(0, c - radius) for c in cell)
                hi = tuple(min(side - 1, c + radius) for c in cell)
                result = store.execute(Query.rect(Rect(lo, hi)))
                expansions += 1
                seeks += result.seeks
                sequential += result.sequential_reads
                scanned += len(result.records) + result.over_read
                best = tuple(
                    sorted(
                        (
                            (_distance(record.point, cell, metric), record.point, record)
                            for record in result.records
                        ),
                        key=lambda entry: entry[:2],
                    )[:k]
                )
                if len(best) == k and best[-1][0] <= radius:
                    break
                if lo == (0,) * dim and hi == (side - 1,) * dim:
                    break  # the box is the whole universe; nothing is missing
                radius *= 2
        sp.set("k", k)
        sp.set("metric", metric)
        sp.set("expansions", expansions)
        sp.set("seeks", seeks)
        sp.set("sequential_reads", sequential)
        sp.set("records_scanned", scanned)
    if started:  # 0.0: metrics were off as the search began
        _KNN_QUERIES.inc()
        _KNN_EXPANSIONS.inc(expansions)
        _KNN_LATENCY.observe(time.perf_counter() - started)
    return KNNResult(
        point=cell,
        neighbors=tuple(Neighbor(record, distance) for distance, _, record in best),
        metric=metric,
        seeks=seeks,
        sequential_reads=sequential,
        expansions=expansions,
        records_scanned=scanned,
    )
