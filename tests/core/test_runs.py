"""Key-run decomposition: exact coverage for every curve type."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.core.clustering import clustering_number, clustering_number_exhaustive
from repro.core.runs import query_runs
from repro.curves import curve_names, make_curve
from repro.engine import Planner
from repro.errors import InvalidQueryError, InvalidUniverseError
from repro.geometry import Rect


def _covered_keys(runs):
    covered = set()
    for start, end in runs:
        assert start <= end
        chunk = set(range(start, end + 1))
        assert not chunk & covered, "runs overlap"
        covered |= chunk
    return covered


class TestRunsExactness:
    def test_runs_cover_exactly_the_query(self, small_curve_2d, rng):
        curve = small_curve_2d
        for _ in range(25):
            lo = rng.integers(0, curve.side, size=2)
            hi = np.minimum(lo + rng.integers(0, 7, size=2), curve.side - 1)
            rect = Rect(tuple(lo), tuple(hi))
            runs = query_runs(curve, rect)
            expected = {int(k) for k in curve.index_many(rect.cells_array())}
            assert _covered_keys(runs) == expected

    def test_run_count_equals_clustering_number(self, small_curve_2d, rng):
        curve = small_curve_2d
        for _ in range(25):
            lo = rng.integers(0, curve.side, size=2)
            hi = np.minimum(lo + rng.integers(0, 7, size=2), curve.side - 1)
            rect = Rect(tuple(lo), tuple(hi))
            assert len(query_runs(curve, rect)) == clustering_number_exhaustive(
                curve, rect
            )

    @pytest.mark.parametrize("name", ["onion", "hilbert", "zorder", "snake"])
    def test_3d_runs(self, name, rng):
        curve = make_curve(name, 8, 3)
        for _ in range(15):
            lo = rng.integers(0, 8, size=3)
            hi = np.minimum(lo + rng.integers(0, 4, size=3), 7)
            rect = Rect(tuple(lo), tuple(hi))
            runs = query_runs(curve, rect)
            expected = {int(k) for k in curve.index_many(rect.cells_array())}
            assert _covered_keys(runs) == expected

    @given(st.integers(0, 2**31))
    def test_onion3d_runs_property(self, seed):
        rng = np.random.default_rng(seed)
        curve = make_curve("onion", 8, 3)
        lo = rng.integers(0, 8, size=3)
        hi = np.minimum(lo + rng.integers(0, 6, size=3), 7)
        rect = Rect(tuple(lo), tuple(hi))
        runs = query_runs(curve, rect)
        expected = {int(k) for k in curve.index_many(rect.cells_array())}
        assert _covered_keys(runs) == expected

    def test_runs_are_sorted(self, small_curve_2d):
        rect = Rect((2, 3), (9, 11))
        runs = query_runs(small_curve_2d, rect)
        assert runs == sorted(runs)

    def test_full_universe_single_run(self, small_curve_2d):
        side = small_curve_2d.side
        runs = query_runs(small_curve_2d, Rect((0, 0), (side - 1, side - 1)))
        assert runs == [(0, small_curve_2d.size - 1)]

    def test_rejects_oversized_rect(self):
        with pytest.raises(InvalidQueryError):
            query_runs(make_curve("onion", 8, 2), Rect((0, 0), (8, 0)))


def _scalar_runs(curve, rect):
    """The runs of ``rect``'s cells keyed one by one by ``index`` (exact
    Python ints), sorted and split where two keys are not consecutive."""
    keys = sorted(curve.index(cell) for cell in rect.cells())
    runs = [[keys[0], keys[0]]]
    for key in keys[1:]:
        if key == runs[-1][1] + 1:
            runs[-1][1] = key
        else:
            runs.append([key, key])
    return [tuple(run) for run in runs]


def _builds_at(name, side):
    try:
        return make_curve(name, side, 2)
    except InvalidUniverseError:  # peano needs a power of 3
        return None


class TestRunsPastInt64:
    """At side 2**32 the keys pass int64 and the vectorized kernels
    refuse the universe; planning keys the query's cells with the exact
    scalar kernels instead, on every construction path."""

    SIDE = 2**32

    @pytest.mark.parametrize(
        "name", [name for name in curve_names() if _builds_at(name, 2**32)]
    )
    def test_runs_match_scalar_keys(self, name):
        curve = make_curve(name, self.SIDE, 2)
        planner = Planner(curve)
        centre, top = 2**31 - 1, self.SIDE - 1
        rects = [
            Rect((0, 0), (3, 2)),  # keys far below 2**63
            Rect((centre - 2, centre - 1), (centre + 1, centre + 2)),
            Rect((top - 2, top - 3), (top, top)),
            Rect((top - 5, 4), (top, 4)),  # one cell high
        ]
        largest = 0
        for rect in rects:
            expected = _scalar_runs(curve, rect)
            assert query_runs(curve, rect) == expected, rect
            assert planner.key_runs(rect) == expected, rect
            assert clustering_number(curve, rect) == len(expected), rect
            assert clustering_number_exhaustive(curve, rect) == len(expected), rect
            largest = max(largest, expected[-1][1])
        assert largest > 2**63 - 1
