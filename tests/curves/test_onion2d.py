"""The 2-d onion curve against the paper's inductive definition."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.core.runs import query_runs_vectorized
from repro.curves import OnionCurve2D, onion2d_index_recursive
from repro.curves.onion2d import (
    onion2d_index_array,
    onion2d_point_array,
    onion2d_rect_runs,
)
from repro.errors import OutOfUniverseError
from repro.geometry import Rect


class TestPaperDefinition:
    def test_o2_base_case(self):
        """Figure 3 left: the 2x2 onion curve."""
        curve = OnionCurve2D(2)
        assert curve.index((0, 0)) == 0
        assert curve.index((1, 0)) == 1
        assert curve.index((1, 1)) == 2
        assert curve.index((0, 1)) == 3

    def test_o4_matches_figure3(self):
        """Figure 3 right: the 4x4 onion curve — outer ring 0..11 counter-
        clockwise from the origin, inner 2x2 ring 12..15."""
        curve = OnionCurve2D(4)
        expected = {
            (0, 0): 0, (1, 0): 1, (2, 0): 2, (3, 0): 3,
            (3, 1): 4, (3, 2): 5, (3, 3): 6,
            (2, 3): 7, (1, 3): 8, (0, 3): 9,
            (0, 2): 10, (0, 1): 11,
            (1, 1): 12, (2, 1): 13, (2, 2): 14, (1, 2): 15,
        }
        for cell, key in expected.items():
            assert curve.index(cell) == key, cell

    @pytest.mark.parametrize("side", [2, 4, 6, 8, 10, 12])
    def test_closed_form_equals_recursion(self, side):
        curve = OnionCurve2D(side)
        for x in range(side):
            for y in range(side):
                assert curve.index((x, y)) == onion2d_index_recursive(side, (x, y))

    def test_recursion_rejects_outside(self):
        with pytest.raises(OutOfUniverseError):
            onion2d_index_recursive(4, (4, 0))


class TestStructure:
    @pytest.mark.parametrize("side", [1, 2, 3, 4, 5, 8, 9, 16])
    def test_bijection_all_sides(self, side):
        OnionCurve2D(side).verify_bijection()

    @pytest.mark.parametrize("side", [1, 2, 3, 4, 5, 8, 9, 16])
    def test_continuity_all_sides(self, side):
        """The 2-d onion curve is continuous even for odd sides."""
        OnionCurve2D(side).verify_continuity()

    def test_layers_are_key_contiguous(self):
        """All of layer t is numbered before any of layer t+1 (the curve's
        defining property)."""
        side = 10
        curve = OnionCurve2D(side)
        previous_layer = 1
        for key in range(curve.size):
            layer = curve.layer_of(curve.point(key))
            assert layer >= previous_layer
            previous_layer = layer

    def test_starts_at_origin_ends_at_center(self):
        curve = OnionCurve2D(8)
        assert curve.first_cell == (0, 0)
        center = curve.last_cell
        assert curve.layer_of(center) == 4

    def test_dim_guard(self):
        with pytest.raises(OutOfUniverseError):
            OnionCurve2D(8, dim=3)


class TestVectorized:
    @pytest.mark.parametrize("side", [2, 5, 8, 13, 64])
    def test_index_many_matches_scalar(self, side):
        curve = OnionCurve2D(side)
        rng = np.random.default_rng(side)
        cells = rng.integers(0, side, size=(200, 2))
        keys = curve.index_many(cells)
        assert keys.tolist() == [curve.index(tuple(c)) for c in cells]

    @pytest.mark.parametrize("side", [2, 5, 8, 13, 64])
    def test_point_many_matches_scalar(self, side):
        curve = OnionCurve2D(side)
        rng = np.random.default_rng(side)
        keys = rng.integers(0, curve.size, size=200)
        points = curve.point_many(keys)
        assert [tuple(p) for p in points.tolist()] == [
            curve.point(int(k)) for k in keys
        ]

    def test_array_kernels_with_per_element_sides(self):
        """The side-parametric kernels used by the 3-d faces."""
        sides = np.asarray([2, 4, 6, 8] * 10, dtype=np.int64)
        rng = np.random.default_rng(3)
        x = rng.integers(0, sides)
        y = rng.integers(0, sides)
        keys = onion2d_index_array(x, y, sides)
        for xi, yi, si, ki in zip(x, y, sides, keys):
            assert OnionCurve2D(int(si)).index((int(xi), int(yi))) == ki
        back = onion2d_point_array(keys, sides)
        assert (back[:, 0] == x).all() and (back[:, 1] == y).all()

    @given(st.integers(1, 40))
    def test_roundtrip_any_side(self, side):
        curve = OnionCurve2D(side)
        keys = np.arange(curve.size, dtype=np.int64)
        cells = curve.point_many(keys)
        assert (curve.index_many(cells) == keys).all()


class TestRectRuns:
    """The closed-form key runs of a rect equal the runs of its sorted
    keys (one bulk ``index_many`` over every cell)."""

    @pytest.mark.parametrize("side", range(1, 13))
    def test_every_rect_matches_keyed_cells(self, side):
        """Both parities, 1-wide rects, the 1- and 2-cell centre rings
        and the full universe, at every corner pair."""
        curve = OnionCurve2D(side)
        spans = [(lo, hi) for lo in range(side) for hi in range(lo, side)]
        for x0, x1 in spans:
            for y0, y1 in spans:
                rect = Rect((x0, y0), (x1, y1))
                assert onion2d_rect_runs(side, rect.lo, rect.hi) == (
                    query_runs_vectorized(curve, rect)
                ), rect

    @given(st.data())
    def test_large_sides_match_keyed_cells(self, data):
        side = data.draw(st.sampled_from([255, 256, 257, 1000, 1023]))
        coordinate = st.integers(0, side - 1)
        x0, x1 = sorted(data.draw(st.tuples(coordinate, coordinate)))
        y0, y1 = sorted(data.draw(st.tuples(coordinate, coordinate)))
        rect = Rect((x0, y0), (x1, y1))
        assert onion2d_rect_runs(side, rect.lo, rect.hi) == query_runs_vectorized(
            OnionCurve2D(side), rect
        )

    def test_side_2_to_the_32_matches_scalar_keys(self):
        """Past 2**63 the keys are exact Python ints: each rect's runs
        equal the runs of its cells keyed one by one with ``index``,
        sorted.  An int64 walk would wrap the keys near the centre."""
        side = 2**32
        curve = OnionCurve2D(side)
        top, mid = side - 1, 2**31
        rects = [
            ((0, 0), (3, 2)),  # the origin corner
            ((top - 3, top - 2), (top, top)),  # the far corner
            ((mid - 3, mid - 3), (mid + 2, mid + 2)),  # whole centre rings
            ((mid - 2, mid - 1), (mid + 1, mid + 3)),  # across the centre
            ((7, 7), (11, 12)),  # across ring 10's first corner
            ((top - 12, top - 12), (top - 8, top - 7)),  # across a far corner
            ((5, 0), (5, 9)),  # one cell wide
            ((mid - 4, mid), (mid + 4, mid)),  # one cell high, at the centre
            ((mid - 1, mid - 1), (mid - 1, mid - 1)),  # one centre cell
        ]
        for lo, hi in rects:
            keys = sorted(
                curve.index((x, y))
                for x in range(lo[0], hi[0] + 1)
                for y in range(lo[1], hi[1] + 1)
            )
            runs = [[keys[0], keys[0]]]
            for key in keys[1:]:
                if key == runs[-1][1] + 1:
                    runs[-1][1] = key
                else:
                    runs.append([key, key])
            assert onion2d_rect_runs(side, lo, hi) == [tuple(run) for run in runs], lo
        assert max(keys) > 2**63
