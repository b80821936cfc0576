"""Cost-based curve selection for a query workload.

The practical payoff of the paper's analysis: given the query shapes an
application expects, the *exact* average clustering number (Lemma 1,
computed in O(n) per candidate curve) is a principled cost model for
choosing the index's space filling curve — the clustering number is the
seek count, and seeks dominate range-scan latency.

``advise`` scores every candidate curve against a workload of query
shapes (optionally weighted) and returns a ranked report.  The paper's
theory predicts the outcome: the onion curve wins workloads dominated by
large near-cubes, while for row-shaped workloads the row-major curve is
unbeatable (Lemma 10 says no curve wins both).

``advise_histogram`` is the same ranking computed from a *shape
histogram* (shape → weight) instead of a shape list, with an optional
``(curve, shape) → cost`` memo cache.  That is the adaptive control
plane's entry point: the drift detector re-scores the live workload mix
every few hundred queries, and with the cache each re-score only pays
for shapes it has never seen — the O(n) exact sweep per (curve, shape)
runs once per pair, ever.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Mapping, MutableMapping, Optional, Sequence, Tuple

from ..analysis.exact import exact_average_clustering
from ..curves.base import SpaceFillingCurve
from ..errors import InvalidQueryError

__all__ = ["CurveScore", "advise", "advise_histogram"]

#: A workload entry: per-dimension query lengths, with an optional weight.
WorkloadShape = Tuple[int, ...]

#: Memo cache for exact per-shape costs, shared across re-scores.
ScoreCache = MutableMapping[Tuple[SpaceFillingCurve, WorkloadShape], float]

#: Expected seeks equal to this many decimals rank as a tie, kept in
#: candidate order: rescaling the weights moves an exact tie by a few
#: ulps either way, and must not reorder the ranking.
_TIE_DECIMALS = 9


@dataclass(frozen=True)
class CurveScore:
    """One candidate's expected cost over the workload."""

    curve: SpaceFillingCurve
    #: Weighted mean of exact average clustering numbers (expected seeks).
    expected_seeks: float
    #: Per-shape breakdown, keyed by the shape tuple.
    per_shape: Dict[WorkloadShape, float]


def _validate_candidates(curves: Sequence[SpaceFillingCurve]) -> None:
    if not curves:
        raise InvalidQueryError("no candidate curves given")
    side = curves[0].side
    dim = curves[0].dim
    for curve in curves:
        if curve.side != side or curve.dim != dim:
            raise InvalidQueryError(
                "all candidate curves must share side and dimension"
            )


def _shape_cost(
    curve: SpaceFillingCurve,
    shape: WorkloadShape,
    cache: Optional[ScoreCache],
) -> float:
    """Exact expected seeks of ``shape`` on ``curve``, through the memo."""
    if cache is None:
        return exact_average_clustering(curve, shape, method="sweep")
    key = (curve, shape)
    cost = cache.get(key)
    if cost is None:
        cost = exact_average_clustering(curve, shape, method="sweep")
        cache[key] = cost
    return cost


def advise_histogram(
    curves: Sequence[SpaceFillingCurve],
    histogram: Mapping[WorkloadShape, float],
    cache: Optional[ScoreCache] = None,
) -> List[CurveScore]:
    """Rank candidate curves against a shape histogram (shape → weight).

    The histogram is what a live :class:`~repro.adaptive.WorkloadRecorder`
    produces; weights need not be normalized (only their ratios matter —
    the ranking is invariant under rescaling, which the property tests
    assert).  ``cache`` memoizes exact per-``(curve, shape)`` costs
    across calls, so periodic re-scoring of a slowly-changing mix is
    incremental: only never-seen shapes pay the O(n) sweep.
    """
    _validate_candidates(curves)
    if not histogram:
        raise InvalidQueryError("empty workload")
    shapes = {
        tuple(int(l) for l in shape): float(weight)
        for shape, weight in histogram.items()
    }
    if any(weight < 0 for weight in shapes.values()):
        raise InvalidQueryError("histogram weights must be >= 0")
    total_weight = sum(shapes.values())
    if total_weight <= 0:
        raise InvalidQueryError("weights must sum to a positive value")

    scores: List[CurveScore] = []
    for curve in curves:
        per_shape: Dict[WorkloadShape, float] = {}
        expected = 0.0
        for shape, weight in shapes.items():
            cost = _shape_cost(curve, shape, cache)
            per_shape[shape] = cost
            expected += weight * cost
        scores.append(
            CurveScore(
                curve=curve,
                expected_seeks=expected / total_weight,
                per_shape=per_shape,
            )
        )
    scores.sort(key=lambda s: round(s.expected_seeks, _TIE_DECIMALS))
    return scores


def advise(
    curves: Sequence[SpaceFillingCurve],
    shapes: Sequence[WorkloadShape],
    weights: Optional[Sequence[float]] = None,
) -> List[CurveScore]:
    """Rank candidate curves by expected seeks over the workload.

    All curves must share ``side`` and ``dim``; ``shapes`` are query side
    lengths (each averaged exactly over all translations); ``weights``
    default to uniform.  Returns scores sorted best (fewest expected
    seeks) first.  Duplicate shapes accumulate their weights — the
    ranking is the histogram ranking of the aggregated mix.
    """
    _validate_candidates(curves)
    if not shapes:
        raise InvalidQueryError("empty workload")
    if weights is None:
        weights = [1.0] * len(shapes)
    if len(weights) != len(shapes):
        raise InvalidQueryError("weights must match shapes one-to-one")
    histogram: Dict[WorkloadShape, float] = {}
    for shape, weight in zip(shapes, weights):
        key = tuple(int(l) for l in shape)
        histogram[key] = histogram.get(key, 0.0) + float(weight)
    return advise_histogram(curves, histogram)
