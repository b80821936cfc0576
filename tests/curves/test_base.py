"""Contract tests for the :class:`SpaceFillingCurve` base class."""

import itertools

import numpy as np
import pytest

from repro.curves import OnionCurve2D, ZOrderCurve, curve_names, make_curve
from repro.errors import InvalidUniverseError, OutOfUniverseError


class TestIdentity:
    def test_sizing(self):
        curve = make_curve("onion", 8, 2)
        assert curve.side == 8
        assert curve.dim == 2
        assert curve.size == 64

    def test_repr_mentions_parameters(self):
        assert "side=8" in repr(make_curve("hilbert", 8, 3))

    def test_equality_and_hash(self):
        a = OnionCurve2D(8)
        b = OnionCurve2D(8)
        c = OnionCurve2D(16)
        assert a == b and hash(a) == hash(b)
        assert a != c
        assert a != ZOrderCurve(8, 2)

    def test_name(self):
        assert make_curve("onion", 8, 2).name == "onion"
        assert make_curve("zorder", 8, 2).name == "zorder"


class TestValidation:
    def test_index_rejects_outside_cell(self, small_curve):
        with pytest.raises(OutOfUniverseError):
            small_curve.index((small_curve.side,) * small_curve.dim)

    def test_index_rejects_wrong_dim(self, small_curve):
        with pytest.raises(OutOfUniverseError):
            small_curve.index((0,) * (small_curve.dim + 1))

    def test_point_rejects_bad_keys(self, small_curve):
        with pytest.raises(OutOfUniverseError):
            small_curve.point(-1)
        with pytest.raises(OutOfUniverseError):
            small_curve.point(small_curve.size)

    def test_index_many_rejects_out_of_range(self, small_curve):
        bad = np.full((2, small_curve.dim), small_curve.side, dtype=np.int64)
        with pytest.raises(OutOfUniverseError):
            small_curve.index_many(bad)

    def test_point_many_rejects_out_of_range(self, small_curve):
        with pytest.raises(OutOfUniverseError):
            small_curve.point_many(np.asarray([small_curve.size]))


def _builds_at(name, side):
    try:
        return make_curve(name, side, 2)
    except InvalidUniverseError:  # peano needs a power of 3
        return None


BUILDS_AT_2_TO_THE_32 = [name for name in curve_names() if _builds_at(name, 2**32)]


class TestKeysPastInt64:
    """The vectorized kernels key in int64, so a universe whose largest
    key exceeds 2**63 - 1 is refused before anything is keyed; the
    scalar kernels stay exact there, and ``keys_of``/``cells_of`` use
    them."""

    SIDE = 2**32

    @pytest.mark.parametrize("name", BUILDS_AT_2_TO_THE_32)
    def test_kernels_refuse_the_universe(self, name):
        curve = make_curve(name, self.SIDE, 2)
        assert curve.size - 1 > 2**63 - 1
        centre = 2**31 - 1
        with pytest.raises(InvalidUniverseError):
            curve.index_many(np.asarray([[centre, centre]]))
        with pytest.raises(InvalidUniverseError):
            curve.point_many(np.asarray([0]))
        assert curve.point(curve.index((centre, centre))) == (centre, centre)

    @pytest.mark.parametrize("name", BUILDS_AT_2_TO_THE_32)
    def test_keys_of_and_cells_of_stay_exact(self, name):
        curve = make_curve(name, self.SIDE, 2)
        centre, top = 2**31 - 1, self.SIDE - 1
        cells = [(0, 0), (centre, centre), (top, 0), (0, top), (top, top)]
        keys = curve.keys_of(cells)
        assert keys.tolist() == [curve.index(cell) for cell in cells]
        assert max(keys) > 2**63 - 1
        assert curve.cells_of(keys).tolist() == [list(cell) for cell in cells]
        assert curve.keys_of(np.asarray(cells)).tolist() == keys.tolist()

    @pytest.mark.parametrize("name", BUILDS_AT_2_TO_THE_32)
    def test_keys_of_and_cells_of_use_the_kernels_where_keys_fit(self, name):
        curve = make_curve(name, 16, 2)
        cells = np.asarray([(0, 0), (7, 8), (15, 0), (3, 15)])
        keys = curve.keys_of(cells)
        assert keys.dtype == np.int64
        assert keys.tolist() == curve.index_many(cells).tolist()
        assert curve.cells_of(keys).tolist() == cells.tolist()

    def test_onion_keys_in_bulk_up_to_the_last_side_that_fits(self):
        fits = make_curve("onion", 3_037_000_499, 2)
        assert fits.size - 1 <= 2**63 - 1
        cells = np.asarray([[1_518_500_249] * 2, [0, 0], [3_037_000_498, 1]])
        keys = fits.index_many(cells)
        assert keys.tolist() == [fits.index(tuple(cell)) for cell in cells.tolist()]
        assert fits.point_many(keys).tolist() == cells.tolist()
        with pytest.raises(InvalidUniverseError):
            make_curve("onion", 3_037_000_500, 2).index_many(np.asarray([[0, 0]]))


def _largest_int64_universe(name, dim):
    """``name``'s ``dim``-d curve at the largest side, of those it builds,
    whose keys fit int64: the integer ``dim``-th root of 2**63, or the
    largest power of two or of three below it; None if it builds none."""
    root = int(round(2 ** (63 / dim)))
    while root**dim > 2**63:
        root -= 1
    while (root + 1) ** dim <= 2**63:
        root += 1
    three = 1
    while three * 3 <= root:
        three *= 3
    for side in (root, 1 << (root.bit_length() - 1), three):
        try:
            return make_curve(name, side, dim)
        except (InvalidUniverseError, OutOfUniverseError):  # peano is 2-d only
            continue
    return None


LARGEST_INT64_UNIVERSES = [
    (name, dim)
    for name in curve_names()
    for dim in (2, 3, 4)
    if _largest_int64_universe(name, dim) is not None
]


class TestLargestInt64Universes:
    """Where every key fits int64, ``keys_of`` and ``cells_of`` equal
    ``index`` and ``point``, whether the curve's vectorized kernels key
    the universe or refuse it: the Hilbert, z-order and Gray kernels
    key at most 62 bits, and a 3-d key at side 2**21 has 63."""

    @pytest.mark.parametrize("name, dim", LARGEST_INT64_UNIVERSES)
    def test_keys_of_and_cells_of_equal_index_and_point(self, name, dim):
        curve = _largest_int64_universe(name, dim)
        side = curve.side
        assert curve.size - 1 <= 2**63 - 1
        rng = np.random.default_rng(dim)
        cells = [*itertools.product((0, side - 1), repeat=dim), (side // 2,) * dim]
        cells += [tuple(int(v) for v in row) for row in rng.integers(0, side, size=(20, dim))]
        keys = curve.keys_of(cells)
        assert keys.tolist() == [curve.index(cell) for cell in cells]
        assert curve.cells_of(keys).tolist() == [list(cell) for cell in cells]


class TestTraversal:
    def test_walk_covers_every_cell_once(self, small_curve):
        cells = list(small_curve.walk())
        assert len(cells) == small_curve.size
        assert len(set(cells)) == small_curve.size

    def test_edges_count(self, small_curve):
        assert sum(1 for _ in small_curve.edges()) == small_curve.size - 1

    def test_first_and_last_cells(self, small_curve):
        assert small_curve.first_cell == small_curve.point(0)
        assert small_curve.last_cell == small_curve.point(small_curve.size - 1)

    def test_verify_bijection_passes(self, small_curve):
        small_curve.verify_bijection()

    def test_continuity_flag_is_truthful(self, small_curve):
        if small_curve.is_continuous:
            small_curve.verify_continuity()
            assert not list(small_curve.discontinuities())
        else:
            jumps = list(small_curve.discontinuities())
            assert jumps, f"{small_curve} flagged discontinuous but has no jumps"

    def test_discontinuities_are_real_jumps(self, small_curve):
        for cell in small_curve.discontinuities():
            key = small_curve.index(cell)
            prev = small_curve.point(key - 1)
            step = sum(abs(a - b) for a, b in zip(cell, prev))
            assert step != 1


class TestPerInstanceCaches:
    def test_endpoint_cells_cached(self, small_curve):
        assert small_curve.first_cell == small_curve.point(0)
        assert small_curve.last_cell == small_curve.point(small_curve.size - 1)
        assert small_curve.__dict__["_first_cell"] == small_curve.first_cell
        assert small_curve.__dict__["_last_cell"] == small_curve.last_cell

    def test_jump_cells_cached_and_match_discontinuities(self, small_curve):
        jumps = small_curve.jump_cells()
        assert jumps is small_curve.jump_cells()  # materialized once
        assert jumps.shape == (len(list(small_curve.discontinuities())), small_curve.dim)
        assert [tuple(j) for j in jumps.tolist()] == [
            tuple(c) for c in small_curve.discontinuities()
        ]

    def test_jump_predecessors_cached_and_correct(self, small_curve):
        preds = small_curve.jump_predecessor_cells()
        assert preds is small_curve.jump_predecessor_cells()
        jumps = small_curve.jump_cells()
        assert preds.shape == jumps.shape
        for jump, pred in zip(jumps.tolist(), preds.tolist()):
            key = small_curve.index(tuple(jump))
            assert tuple(pred) == small_curve.point(key - 1)


class TestVectorizedDefaults:
    def test_index_many_matches_scalar(self, small_curve):
        cells = np.asarray(list(small_curve.walk()), dtype=np.int64)
        keys = small_curve.index_many(cells)
        expected = [small_curve.index(tuple(c)) for c in cells]
        assert keys.tolist() == expected

    def test_point_many_matches_scalar(self, small_curve):
        keys = np.arange(small_curve.size, dtype=np.int64)
        points = small_curve.point_many(keys)
        expected = [small_curve.point(int(k)) for k in keys]
        assert [tuple(p) for p in points.tolist()] == expected

    def test_empty_batches(self, small_curve):
        assert small_curve.index_many(
            np.empty((0, small_curve.dim), dtype=np.int64)
        ).shape == (0,)
        assert small_curve.point_many(np.empty(0, dtype=np.int64)).shape == (
            0,
            small_curve.dim,
        )
