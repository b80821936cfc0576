"""kNN differential tests: expanding range search vs a brute-force oracle.

Every configuration — curves × dimensions (2-d and 3-d) × k × metric ×
shard counts — must return exactly the distances a brute-force scan of
all stored records produces, in ascending order, with deterministic tie
breaking shared by single and sharded stores.
"""

import math

import numpy as np
import pytest

from repro.api import KNNResult, knn_search
from repro.curves import make_curve
from repro.errors import InvalidQueryError, OutOfUniverseError
from repro.geometry import Rect
from repro.index import SFCIndex, ShardedSFCIndex

SIDE = {2: 16, 3: 8}


def _points(side, dim, count, seed):
    rng = np.random.default_rng(seed)
    return [tuple(map(int, p)) for p in rng.integers(0, side, size=(count, dim))]


def _build(name, dim, shards, seed=11, count=150):
    side = SIDE[dim]
    curve = make_curve(name, side, dim)
    if shards == 1:
        store = SFCIndex(curve, page_capacity=8)
    else:
        store = ShardedSFCIndex(
            curve, num_shards=shards, page_capacity=8
        )
    store.bulk_load(_points(side, dim, count, seed))
    store.flush()
    return store


def _brute_force(store, point, k, metric="euclidean"):
    """Oracle: distances of the k nearest records by exhaustive scan."""
    side = store.curve.side
    dim = store.curve.dim
    whole = Rect((0,) * dim, (side - 1,) * dim)
    distances = []
    for record in store.range_query(whole).records:
        deltas = [abs(a - b) for a, b in zip(record.point, point)]
        if metric == "euclidean":
            distances.append(math.sqrt(sum(d * d for d in deltas)))
        elif metric == "manhattan":
            distances.append(float(sum(deltas)))
        else:
            distances.append(float(max(deltas)))
    return sorted(distances)[:k]


class TestAgainstOracle:
    @pytest.mark.parametrize("name", ["onion", "hilbert", "zorder", "rowmajor"])
    @pytest.mark.parametrize("k", [1, 4, 9])
    def test_2d_matches_brute_force(self, name, k):
        store = _build(name, 2, shards=1)
        for point in [(0, 0), (5, 5), (15, 3), (8, 15)]:
            result = store.knn(point, k)
            assert list(result.distances) == pytest.approx(
                _brute_force(store, point, k)
            )
            assert list(result.distances) == sorted(result.distances)

    @pytest.mark.parametrize("name", ["onion", "hilbert", "zorder"])
    @pytest.mark.parametrize("k", [1, 5])
    def test_3d_matches_brute_force(self, name, k):
        store = _build(name, 3, shards=1)
        for point in [(0, 0, 0), (3, 4, 5), (7, 7, 7)]:
            result = store.knn(point, k)
            assert list(result.distances) == pytest.approx(
                _brute_force(store, point, k)
            )

    @pytest.mark.parametrize("metric", ["euclidean", "manhattan", "chebyshev"])
    def test_metrics_match_brute_force(self, metric):
        store = _build("onion", 2, shards=1)
        result = store.knn((6, 9), 6, metric=metric)
        assert result.metric == metric
        assert list(result.distances) == pytest.approx(
            _brute_force(store, (6, 9), 6, metric)
        )

    @pytest.mark.parametrize("shards", [2, 3, 4])
    def test_sharded_equals_single(self, shards):
        single = _build("onion", 2, shards=1)
        sharded = _build("onion", 2, shards=shards)
        for point in [(2, 2), (10, 13), (15, 0)]:
            a = single.knn(point, 8)
            b = sharded.knn(point, 8)
            assert a.distances == b.distances
            assert [n.record.point for n in a.neighbors] == [
                n.record.point for n in b.neighbors
            ]


class TestSemantics:
    def test_k_larger_than_store_returns_everything(self):
        store = _build("onion", 2, shards=1, count=12)
        result = store.knn((4, 4), 50)
        assert len(result) == len(store)
        assert list(result.distances) == pytest.approx(
            _brute_force(store, (4, 4), 50)
        )

    def test_k_zero_is_empty_and_free(self):
        store = _build("onion", 2, shards=1)
        result = store.knn((4, 4), 0)
        assert result.neighbors == ()
        assert result.expansions == 0
        assert result.pages_read == 0

    def test_empty_store(self):
        store = SFCIndex(make_curve("onion", 8, 2), page_capacity=4)
        result = store.knn((1, 1), 3)
        assert result.neighbors == ()

    def test_exact_hits_and_duplicates_come_first(self):
        store = SFCIndex(make_curve("hilbert", 16, 2), page_capacity=4)
        store.bulk_load([(5, 5), (5, 5), (6, 5), (0, 0)], payloads=["a", "b", "c", "d"])
        result = store.knn((5, 5), 3)
        assert result.distances == (0.0, 0.0, 1.0)
        assert {n.record.payload for n in result.neighbors[:2]} == {"a", "b"}

    def test_expansions_are_logarithmic(self):
        store = _build("onion", 2, shards=1)
        result = store.knn((8, 8), 3)
        assert 1 <= result.expansions <= math.ceil(math.log2(SIDE[2])) + 1

    def test_result_shape(self):
        store = _build("onion", 2, shards=1)
        result = store.knn((3, 3), 2)
        assert isinstance(result, KNNResult)
        assert result.records == tuple(n.record for n in result.neighbors)
        assert result.cost() > 0
        assert result.records_scanned >= len(result)

    def test_invalid_arguments(self):
        store = _build("onion", 2, shards=1)
        with pytest.raises(InvalidQueryError):
            store.knn((1, 1), -1)
        with pytest.raises(InvalidQueryError):
            store.knn((1, 1), 3, metric="cosine")
        with pytest.raises(OutOfUniverseError):
            store.knn((99, 99), 3)

    def test_function_form_matches_method(self):
        store = _build("onion", 2, shards=1)
        assert knn_search(store, (4, 4), 3).distances == store.knn((4, 4), 3).distances
