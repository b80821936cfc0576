"""Vectorized ``SFCIndex.bulk_load``: equivalence with insert-at-a-time."""

import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.curves import make_curve
from repro.errors import OutOfUniverseError
from repro.geometry import Rect
from repro.index import SFCIndex

from layout_oracle import assert_serves_the_walk

UNIVERSE = Rect((0, 0), (15, 15))


def fresh_index(**kwargs):
    return SFCIndex(make_curve("onion", 16, 2), page_capacity=4, **kwargs)


def handed_over(points, form):
    """``points`` as a list of tuples, numpy rows or a generator."""
    if form == "numpy":
        return np.array(points, dtype=np.int64).reshape(-1, 2)
    if form == "generator":
        return (point for point in points)
    return list(points)


#: Few distinct cells, so most loads repeat some.
cells = st.tuples(st.integers(0, 3), st.integers(0, 15))
#: Each load: its points, how they are handed over, how payloads are
#: (none, a list, an endless iterator), and whether both stores are
#: read after it.
loads = st.lists(
    st.tuples(
        st.lists(cells, max_size=40),
        st.sampled_from(["list", "numpy", "generator"]),
        st.sampled_from(["none", "list", "iterator"]),
        st.booleans(),
    ),
    min_size=1,
    max_size=4,
)


class TestEquivalence:
    @settings(max_examples=100, deadline=None)
    @given(loads=loads)
    def test_matches_insert_loop(self, loads):
        """Loads into empty and non-empty stores leave the same buckets
        as inserting every record in arrival order, and the bulk
        store's reads serve the walk, whichever flush path ran."""
        bulk, loop = fresh_index(), fresh_index()
        first = 0  # payloads are unique, so per-key order shows
        for points, form, payload_form, read in loads:
            payloads = {
                "none": None,
                "list": list(range(first, first + len(points))),
                "iterator": itertools.count(first),
            }[payload_form]
            bulk.bulk_load(handed_over(points, form), payloads)
            for i, point in enumerate(points):
                loop.insert(point, None if payloads is None else first + i)
            first += len(points)
            with bulk._mutex, loop._mutex:
                assert list(bulk._flush_entries()) == list(loop._flush_entries())
                bulk._tree.check_invariants()
            assert len(bulk) == len(loop)
            if read:
                # identical records in identical on-disk order
                assert bulk.range_query(UNIVERSE).records == loop.range_query(UNIVERSE).records
                assert bulk.disk.num_pages == loop.disk.num_pages
                assert_serves_the_walk(bulk)
        bulk.range_query(UNIVERSE)
        assert_serves_the_walk(bulk)

    def test_duplicate_cells_keep_arrival_order(self):
        index = fresh_index()
        index.bulk_load([(3, 3)] * 4 + [(3, 4)], payloads=["a", "b", "c", "d", "e"])
        result = index.range_query(Rect((3, 3), (3, 3)))
        assert [r.payload for r in result.records] == ["a", "b", "c", "d"]

    def test_without_payloads(self):
        index = fresh_index()
        index.bulk_load([(0, 0), (1, 2), (0, 0)])
        assert len(index) == 3
        assert all(r.payload is None for r in index.point_query((0, 0)))

    def test_accepts_numpy_rows(self, rng):
        index = fresh_index()
        index.bulk_load(rng.integers(0, 16, size=(50, 2)))
        assert len(index) == 50

    def test_short_payloads_rejected_not_truncated(self):
        from repro.errors import InvalidQueryError

        index = fresh_index()
        with pytest.raises(InvalidQueryError):
            index.bulk_load([(0, 0), (1, 1), (2, 2)], payloads=["x"])
        assert len(index) == 0  # nothing partially loaded

    def test_infinite_payload_iterator_supported(self):
        import itertools

        index = fresh_index()
        index.bulk_load([(0, 0), (1, 1)], payloads=itertools.repeat("p"))
        assert len(index) == 2
        assert index.point_query((1, 1))[0].payload == "p"


class TestValidationAndInvalidation:
    def test_empty_load_is_noop(self):
        index = fresh_index()
        index.bulk_load([])
        assert len(index) == 0
        index.bulk_load([], payloads=[])
        assert len(index) == 0

    def test_out_of_universe_point_rejected(self):
        index = fresh_index()
        with pytest.raises(OutOfUniverseError):
            index.bulk_load([(0, 0), (16, 3)])
        with pytest.raises(OutOfUniverseError):
            index.bulk_load([(0, 0, 0)])  # wrong dimensionality

    def test_layout_invalidated_once_at_end(self):
        index = fresh_index()
        index.bulk_load([(0, 0), (1, 1)])
        index.flush()
        assert index.page_layout is not None
        index.bulk_load([(2, 2), (3, 3)])
        assert index.page_layout is None  # stale layout dropped
        result = index.range_query(Rect((0, 0), (3, 3)))  # auto-reflush
        assert len(result.records) == 4

    def test_bulk_load_after_flush_requeries_fresh_data(self):
        index = fresh_index(buffer_pages=8)
        index.bulk_load([(1, 1)], payloads=["old"])
        index.range_query(Rect((0, 0), (15, 15)))
        index.bulk_load([(2, 2)], payloads=["new"])
        result = index.range_query(Rect((0, 0), (15, 15)))
        assert sorted(r.payload for r in result.records) == ["new", "old"]


@pytest.mark.parametrize("preloaded", [False, True])
def test_a_migration_while_keying_rekeys_the_load(preloaded):
    """A migration that cuts over while ``bulk_load`` keys its points
    outside the mutex: the load re-keys its cells under the new curve,
    so every record lands in the bucket its point's new key names."""
    index = fresh_index()
    if preloaded:
        index.bulk_load([(3, 3), (14, 2)], payloads=["p", "q"])
    hilbert = make_curve("hilbert", 16, 2)
    points = [(3, 3), (1, 2), (3, 3), (9, 9), (1, 2), (3, 3), (0, 15)]

    def payloads():
        for i in range(len(points)):
            if i == 3:  # the onion keys of this load are already taken
                index.migrate_to(hilbert)
            yield i

    index.bulk_load(points, payloads())
    assert index.curve == hilbert
    for point in set(points):
        expected = [i for i, p in enumerate(points) if p == point]
        if preloaded and point == (3, 3):
            expected = ["p"] + expected
        assert [r.payload for r in index.point_query(point)] == expected
    assert len(index) == len(points) + 2 * preloaded
    with index._mutex:
        index._tree.check_invariants()
    assert len(index.range_query(UNIVERSE).records) == len(index)
    assert_serves_the_walk(index)
