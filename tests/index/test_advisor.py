"""The cost-based curve advisor."""

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.analysis.exact import exact_average_clustering
from repro.curves import make_curve
from repro.errors import InvalidQueryError
from repro.index import advise, advise_histogram


@pytest.fixture
def candidates():
    return [make_curve(name, 32, 2) for name in ("onion", "hilbert", "rowmajor")]


#: Small universe for the property suite: sweeps stay cheap, rankings real.
_SMALL = [make_curve(name, 16, 2) for name in ("onion", "hilbert", "rowmajor")]
_SMALL_SHAPES = [(16, 1), (2, 2), (4, 8), (10, 10), (16, 16), (1, 16), (6, 3)]


class TestAdvise:
    def test_onion_wins_large_cube_workload(self, candidates):
        """The paper's headline, as an index-selection decision."""
        scores = advise(candidates, [(28, 28), (30, 30)])
        assert scores[0].curve.name == "onion"

    def test_rowmajor_wins_row_workload(self, candidates):
        """Lemma 10's flip side: row scans want the row-major curve."""
        scores = advise(candidates, [(32, 1)])
        assert scores[0].curve.name == "rowmajor"
        assert scores[0].expected_seeks == pytest.approx(1.0)

    def test_weights_shift_the_decision(self, candidates):
        rows = (32, 1)
        cubes = (30, 30)
        row_heavy = advise(candidates, [rows, cubes], weights=[100.0, 1.0])
        cube_heavy = advise(candidates, [rows, cubes], weights=[1.0, 100.0])
        assert row_heavy[0].curve.name == "rowmajor"
        assert cube_heavy[0].curve.name == "onion"

    def test_scores_sorted_ascending(self, candidates):
        scores = advise(candidates, [(10, 10)])
        values = [s.expected_seeks for s in scores]
        assert values == sorted(values)

    def test_per_shape_breakdown(self, candidates):
        scores = advise(candidates, [(4, 4), (8, 8)])
        for score in scores:
            assert set(score.per_shape) == {(4, 4), (8, 8)}
            assert all(v > 0 for v in score.per_shape.values())

    def test_expected_is_weighted_mean(self, candidates):
        scores = advise(candidates, [(4, 4), (8, 8)], weights=[3.0, 1.0])
        for score in scores:
            manual = (
                3.0 * score.per_shape[(4, 4)] + 1.0 * score.per_shape[(8, 8)]
            ) / 4.0
            assert score.expected_seeks == pytest.approx(manual)


class TestProperties:
    """Ranking invariances the control plane's re-scoring depends on."""

    @settings(max_examples=25, deadline=None)
    @given(
        st.lists(
            st.sampled_from(_SMALL_SHAPES), min_size=1, max_size=4, unique=True
        ),
        st.lists(
            st.floats(0.05, 50.0, allow_nan=False), min_size=4, max_size=4
        ),
        st.floats(0.001, 1000.0, allow_nan=False),
    )
    # Onion and Hilbert tie exactly (8.5 + 7.5625 == 8.0 + 8.0625 seeks on
    # the two lines); float rounding put them 2 ulps apart one way here.
    @example([(16, 16), (1, 16), (16, 1)], [1.0, 0.05, 0.05, 1.0], 0.375)
    def test_ranking_invariant_under_weight_rescaling(self, shapes, weights, factor):
        weights = weights[: len(shapes)]
        base = advise(_SMALL, shapes, weights)
        scaled = advise(_SMALL, shapes, [w * factor for w in weights])
        assert [s.curve for s in base] == [s.curve for s in scaled]
        for a, b in zip(base, scaled):
            assert a.expected_seeks == pytest.approx(b.expected_seeks)

    @settings(max_examples=15, deadline=None)
    @given(
        st.lists(
            st.sampled_from(_SMALL_SHAPES), min_size=1, max_size=3, unique=True
        )
    )
    def test_per_shape_agrees_with_direct_exact_calls(self, shapes):
        for score in advise(_SMALL, shapes):
            for shape in shapes:
                assert score.per_shape[shape] == pytest.approx(
                    exact_average_clustering(score.curve, shape)
                )

    @settings(max_examples=15, deadline=None)
    @given(
        st.lists(
            st.sampled_from(_SMALL_SHAPES), min_size=1, max_size=3, unique=True
        ),
        st.lists(st.floats(0.1, 10.0, allow_nan=False), min_size=3, max_size=3),
    )
    def test_expected_is_weighted_mean_of_exact_averages(self, shapes, weights):
        weights = weights[: len(shapes)]
        for score in advise(_SMALL, shapes, weights):
            manual = sum(
                w * exact_average_clustering(score.curve, shape)
                for shape, w in zip(shapes, weights)
            ) / sum(weights)
            assert score.expected_seeks == pytest.approx(manual)


class TestAdviseHistogram:
    def test_matches_advise_on_equivalent_workload(self, candidates):
        shapes = [(4, 4), (32, 1), (4, 4)]
        weights = [1.0, 2.0, 3.0]
        merged = {(4, 4): 4.0, (32, 1): 2.0}
        a = advise(candidates, shapes, weights)
        b = advise_histogram(candidates, merged)
        assert [s.curve for s in a] == [s.curve for s in b]
        for x, y in zip(a, b):
            assert x.expected_seeks == pytest.approx(y.expected_seeks)

    def test_cache_is_filled_and_reused(self, candidates):
        cache = {}
        advise_histogram(candidates, {(4, 4): 1.0, (8, 8): 2.0}, cache=cache)
        assert len(cache) == len(candidates) * 2
        snapshot = dict(cache)
        result = advise_histogram(candidates, {(4, 4): 5.0}, cache=cache)
        assert cache == snapshot  # nothing recomputed, nothing added
        for score in result:
            assert score.expected_seeks == pytest.approx(
                cache[(score.curve, (4, 4))]
            )

    def test_poisoned_cache_is_trusted(self, candidates):
        """The memo is authoritative — proof the cached path is the one used."""
        cache = {(candidates[0], (4, 4)): 1e6}
        scores = advise_histogram(candidates, {(4, 4): 1.0}, cache=cache)
        assert scores[-1].curve == candidates[0]
        assert scores[-1].expected_seeks == pytest.approx(1e6)

    def test_empty_histogram_rejected(self, candidates):
        with pytest.raises(InvalidQueryError):
            advise_histogram(candidates, {})

    def test_negative_weight_rejected(self, candidates):
        with pytest.raises(InvalidQueryError):
            advise_histogram(candidates, {(4, 4): -1.0})


class TestGuards:
    def test_empty_curves(self):
        with pytest.raises(InvalidQueryError):
            advise([], [(2, 2)])

    def test_empty_workload(self, candidates):
        with pytest.raises(InvalidQueryError):
            advise(candidates, [])

    def test_mixed_universes_rejected(self):
        mixed = [make_curve("onion", 32, 2), make_curve("onion", 16, 2)]
        with pytest.raises(InvalidQueryError):
            advise(mixed, [(2, 2)])

    def test_weight_length_mismatch(self, candidates):
        with pytest.raises(InvalidQueryError):
            advise(candidates, [(2, 2)], weights=[1.0, 2.0])

    def test_zero_weights_rejected(self, candidates):
        with pytest.raises(InvalidQueryError):
            advise(candidates, [(2, 2)], weights=[0.0])
