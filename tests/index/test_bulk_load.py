"""Vectorized ``SFCIndex.bulk_load``: equivalence with insert-at-a-time."""

import gc
import itertools
import sys
import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.curves import make_curve
from repro.errors import InvalidQueryError, OutOfUniverseError
from repro.geometry import Rect
from repro.index import SFCIndex, ShardedSFCIndex
from repro.obs import start_trace
from repro.storage.durable import recover

from layout_oracle import ArrivalModel

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
        """Loads into empty and non-empty stores hold the same records at
        every cell as inserting every record in arrival order, and both
        stores' reads serve the arrival-order model."""
        bulk, loop, model = fresh_index(), fresh_index(), ArrivalModel()
        first = 0  # payloads are unique, so per-key order shows
        for points, form, payload_form, read in loads:
            payloads = {
                "none": None,
                "list": list(range(first, first + len(points))),
                "iterator": itertools.count(first),
            }[payload_form]
            bulk.bulk_load(handed_over(points, form), payloads)
            attached = [None if payloads is None else first + i for i in range(len(points))]
            for point, payload in zip(points, attached):
                loop.insert(point, payload)
            model.bulk_load(points, attached)
            first += len(points)
            with bulk._mutex:
                bulk._tree.check_invariants()
            assert len(bulk) == len(loop) == len(model)
            for cell in set(points):
                expected = [(point, payload) for point, payload in model.rows if point == cell]
                assert [(r.point, r.payload) for r in bulk.point_query(cell)] == expected
                assert loop.point_query(cell) == bulk.point_query(cell)
            if read:
                # identical records in identical on-disk order
                assert bulk.range_query(UNIVERSE).records == loop.range_query(UNIVERSE).records
                assert bulk.disk.num_pages == loop.disk.num_pages
                model.assert_served(bulk)
                model.assert_served(loop)
        bulk.range_query(UNIVERSE)
        model.assert_served(bulk)

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


@pytest.mark.parametrize("kind", ["single", "sharded"])
class TestBulkLoadSpan:
    """Each bulk load is one ``bulk_load`` span, keying included: its
    ``records`` is the number loaded, and ``base`` is True when the load
    became the store's columns.  It is a storage span, not an I/O one."""

    def _store(self, kind):
        if kind == "single":
            return fresh_index()
        return ShardedSFCIndex(make_curve("onion", 16, 2), num_shards=3, page_capacity=4)

    def test_one_span_per_load(self, kind):
        store = self._store(kind)
        grid = [(x, y) for x in range(16) for y in range(0, 16, 3)]
        with start_trace("first") as trace:
            store.bulk_load(grid, payloads=range(len(grid)))
        (span,) = trace.find("bulk_load")
        assert (span.kind, span.attrs) == ("storage", {"records": len(grid), "base": True})
        assert trace.io_totals() == dict.fromkeys(trace.io_totals(), 0)
        with start_trace("into a non-empty store") as trace:
            store.bulk_load([(1, 1), (2, 2), (1, 1)])
        (span,) = trace.find("bulk_load")
        assert span.attrs == {"records": 3, "base": False}
        assert len(store) == len(grid) + 3

    def test_an_empty_load_has_a_span_too(self, kind):
        store = self._store(kind)
        with start_trace("empty") as trace:
            store.bulk_load([])
        (span,) = trace.find("bulk_load")
        assert span.attrs == {"records": 0, "base": False}


def _switch_collector(enabled):
    if enabled:
        gc.enable()
    else:
        gc.disable()


@pytest.fixture
def collector():
    """Puts the cyclic collector back as the test found it, whatever the
    test switched it to."""
    enabled = gc.isenabled()
    yield
    _switch_collector(enabled)


@pytest.mark.parametrize("kind", ["single", "sharded"])
@pytest.mark.usefixtures("collector")
class TestCollectorPause:
    """A bulk load runs with the cyclic garbage collector paused, and
    puts it back as it was on every exit: enabled when it was enabled,
    still disabled when the caller had disabled it."""

    def _store(self, kind, **kwargs):
        if kind == "single":
            return fresh_index(**kwargs)
        return ShardedSFCIndex(
            make_curve("onion", 16, 2), num_shards=3, page_capacity=4, **kwargs
        )

    @staticmethod
    def _watched(items, seen):
        """``items``, noting the collector's state as each is consumed."""
        for item in items:
            seen.append(gc.isenabled())
            yield item

    @pytest.mark.parametrize("was_enabled", [True, False])
    def test_paused_while_the_load_consumes_its_inputs(self, kind, was_enabled):
        store = self._store(kind)
        grid = [(x, y) for x in range(16) for y in range(0, 16, 2)]
        _switch_collector(was_enabled)
        seen = []
        store.bulk_load(self._watched(grid, seen), self._watched(range(len(grid)), seen))
        assert seen == [False] * (2 * len(grid))
        assert gc.isenabled() is was_enabled
        assert len(store) == len(grid)
        store.bulk_load([(1, 1)] * 3)  # into a non-empty store
        assert gc.isenabled() is was_enabled and len(store) == len(grid) + 3

    @pytest.mark.parametrize("was_enabled", [True, False])
    @pytest.mark.parametrize(
        "points, payloads, error",
        [
            ([(0, 0), (1, 1), (2, 2)], ["x"], InvalidQueryError),
            ([(0, 0), (16, 3)], None, OutOfUniverseError),
            ([(0, 0, 0)], None, OutOfUniverseError),
        ],
        ids=["payloads-exhausted", "outside-the-universe", "wrong-dimension"],
    )
    def test_a_load_that_raises_restores_it(
        self, kind, was_enabled, points, payloads, error
    ):
        store = self._store(kind)
        _switch_collector(was_enabled)
        seen = []
        with pytest.raises(error):
            store.bulk_load(self._watched(points, seen), payloads)
        assert seen and not any(seen)
        assert gc.isenabled() is was_enabled
        assert len(store) == 0

    def test_recovery_returns_with_the_collector_enabled(self, kind, tmp_path):
        gc.enable()
        store = self._store(kind, durable_path=tmp_path / "d")
        grid = [(x, y) for x in range(16) for y in range(0, 16, 3)]
        store.bulk_load(grid, range(len(grid)))
        store.checkpoint()
        store.bulk_load([(2, 2), (3, 3)])  # a bulk frame after the checkpoint
        store.durability.close()
        recovered = recover(tmp_path / "d")
        assert gc.isenabled()
        assert recovered.durability.last_recovery.frames_replayed == 1
        assert len(recovered) == len(grid) + 2
        recovered.durability.close()


@pytest.mark.usefixtures("collector")
@pytest.mark.parametrize("was_enabled", [True, False])
def test_overlapping_loads_leave_the_collector_as_they_found_it(was_enabled):
    """The collector's switch is the process's.  Loads that overlap in
    four threads (more than the cores), with a short switch interval,
    leave it as it was before the first began.  Reading it and
    switching it off are one step: without that, a load that read
    "disabled" inside another's pause could switch it off after that
    pause ended, for good (15 of 1,000 such trials on a 2-core host)."""
    grid = [(x, y) for x in range(4) for y in range(4)]
    previous = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for _ in range(150 if was_enabled else 10):
            _switch_collector(was_enabled)
            store, errors = fresh_index(), []

            def loads():
                try:
                    for _ in range(20):
                        store.bulk_load(grid)
                except Exception as exc:  # surfaced by the assertion below
                    errors.append(exc)

            threads = [threading.Thread(target=loads) for _ in range(4)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
            assert not any(thread.is_alive() for thread in threads)
            assert errors == []
            assert gc.isenabled() is was_enabled
            assert len(store) == 4 * 20 * len(grid)
    finally:
        sys.setswitchinterval(previous)


def test_a_3d_onion_store_of_side_2_pow_21_loads_exactly():
    """At side 2**21 the 3-d onion curve's largest key is 2**63 - 1, so
    ``keys_of`` sends the load to the vector kernels: a bulk-loaded
    store holds the same layout as one built by single inserts, which
    is the model's, and answers a 3x3x3 rect at the centre the same.
    (A scan of the whole universe would plan from its boundary shell,
    about 6 * 2**42 cells, so the layouts stand in for it.)"""
    side = 2**21
    curve = make_curve("onion", side, 3)
    ends = (0, side - 1)
    corners = [(x, y, z) for x in ends for y in ends for z in ends]
    rng = np.random.default_rng(21)
    cells = corners + [(side // 2,) * 3] + list(map(tuple, rng.integers(0, side, (1000, 3))))
    bulk = SFCIndex(curve, page_capacity=8)
    loop = SFCIndex(curve, page_capacity=8)
    model = ArrivalModel()
    bulk.bulk_load(cells, range(len(cells)))
    for i, cell in enumerate(cells):
        loop.insert(cell, i)
    model.bulk_load(cells, range(len(cells)))
    centre = Rect((side // 2 - 1,) * 3, (side // 2 + 1,) * 3)
    ours, theirs = bulk.range_query(centre), loop.range_query(centre)
    assert [r.payload for r in ours.records] == [r.payload for r in theirs.records] == [8]
    assert (ours.seeks, ours.pages_read) == (theirs.seeks, theirs.pages_read)
    model.assert_served(bulk)
    model.assert_served(loop)


@pytest.mark.parametrize("preloaded", [False, True])
def test_a_migration_while_keying_rekeys_the_load(preloaded):
    """A migration that cuts over while ``bulk_load`` keys its points
    outside the mutex: the load re-keys its cells under the new curve,
    so every record lands in the bucket its point's new key names."""
    index, model = fresh_index(), ArrivalModel()
    if preloaded:
        index.bulk_load([(3, 3), (14, 2)], payloads=["p", "q"])
        model.bulk_load([(3, 3), (14, 2)], payloads=["p", "q"])
    hilbert = make_curve("hilbert", 16, 2)
    points = [(3, 3), (1, 2), (3, 3), (9, 9), (1, 2), (3, 3), (0, 15)]

    def payloads():
        for i in range(len(points)):
            if i == 3:  # the onion keys of this load are already taken
                index.migrate_to(hilbert)
            yield i

    index.bulk_load(points, payloads())
    model.bulk_load(points, range(len(points)))
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
    model.assert_served(index)
