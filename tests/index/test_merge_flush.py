"""Merge-on-flush: a flush that merges writes serves what a walk would.

A flush after single-record writes keeps the previous layout's two
columns and replaces only the runs of the keys written since, each with
that key's current B+-tree bucket.  With no layout to merge into (the
first flush, after a bulk load, or once the written keys pass
``_MERGE_FRACTION`` of the previous layout's records) it walks every
tree.  The served layout must not depend on which path ran: the same
keys and dtype, the same ``Record`` objects in the same order, and the
same page sizes as :func:`pack_layout` over a fresh walk.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import Rect, SFCIndex, ShardedSFCIndex, make_curve
from repro.api import ANY, pack_layout
from repro.api import store as store_module
from repro.obs import start_trace
from repro.storage.disk import SimulatedDisk

SIDE = 8
CAPACITY = 3
UNIVERSE = Rect((0, 0), (SIDE - 1, SIDE - 1))
#: One record in every cell: 64 records, so the merge tracks 4 keys.
GRID = [(x, y) for x in range(SIDE) for y in range(SIDE)]


def _store(kind):
    curve = make_curve("onion", SIDE, 2)
    if kind == "single":
        return SFCIndex(curve, page_capacity=CAPACITY)
    return ShardedSFCIndex(curve, num_shards=2, page_capacity=CAPACITY)


def assert_serves_the_walk(store):
    """The served layout equals a layout packed from a walk of the trees."""
    layout = store.page_layout
    with store._mutex:
        walked = pack_layout(SimulatedDisk(), layout.capacity, store._flush_entries())
    assert layout.keys.dtype == walked.keys.dtype
    assert layout.keys.tolist() == walked.keys.tolist()
    assert len(layout.records) == len(walked.records)
    assert all(ours is theirs for ours, theirs in zip(layout.records, walked.records))
    assert [len(page) for page in layout.pages] == [len(page) for page in walked.pages]


def assert_shard_loads(store):
    """Each shard's load is the number of served keys in its interval."""
    starts = [lo for lo, _ in store.shards]
    bounds = np.searchsorted(store.page_layout.keys, starts + [store.curve.size])
    assert store.shard_loads == tuple(np.diff(bounds).tolist())
    assert sum(store.shard_loads) == len(store)


def read(store, universe=UNIVERSE):
    """A full-universe range query, checked against the store and the walk
    (and, on a sharded store, against its shard loads)."""
    result = store.range_query(universe)
    assert len(result.records) == len(store)
    assert_serves_the_walk(store)
    if isinstance(store, ShardedSFCIndex):
        assert_shard_loads(store)


def merged_keys(trace):
    """Each flush span's ``merged_keys``, in order (None for a walk)."""
    return [span.attrs["merged_keys"] for span in trace.find("flush")]


@pytest.mark.parametrize("kind", ["single", "sharded"])
class TestFlushPath:
    def test_flush_span_names_the_path(self, kind):
        store = _store(kind)
        store.bulk_load(GRID)
        with start_trace("flushes") as trace:
            read(store)  # the first flush has no layout to merge into
            store.insert((1, 2), "a")
            read(store)
            store.insert((1, 2), "b")
            store.insert((5, 6), "c")
            assert store.delete((3, 3))
            read(store)
            store.flush()  # no writes since the last install
            store.bulk_load([(5, 5)])
            read(store)  # a bulk load drops the base
            for x in range(SIDE):  # 8 keys, past 1/16 of 67 records
                store.insert((x, 0), "d")
            read(store)
        assert merged_keys(trace) == [None, 1, 3, 0, None, None]

    def test_a_missed_delete_leaves_nothing_to_merge(self, kind):
        store = _store(kind)
        store.bulk_load(GRID, payloads=["p"] * len(GRID))
        read(store)
        with start_trace("flushes") as trace:
            assert not store.delete((4, 4), "q")
            assert store.delete((2, 2), "p")
            assert not store.delete((2, 2))
            read(store)
        assert merged_keys(trace) == [1]
        assert store.point_query((2, 2)) == []

    def test_deleting_every_record_merges_to_an_empty_layout(self, kind):
        store = _store(kind)
        cells = [(2, 2)] * 40 + [(6, 1)] * 24
        store.bulk_load(cells, payloads=range(len(cells)))
        read(store)
        with start_trace("flushes") as trace:
            for cell in [(2, 2), (6, 1)]:
                for record in store.point_query(cell):
                    assert store.delete(cell, record.payload)
            read(store)
        assert merged_keys(trace) == [2]
        layout = store.page_layout
        assert (layout.num_pages, layout.keys.dtype) == (0, np.int64)

    def test_a_write_after_migration_merges_into_the_new_columns(self, kind):
        store = _store(kind)
        store.bulk_load(GRID)
        read(store)
        store.insert((2, 5), "before")
        store.migrate_to(make_curve("hilbert", SIDE, 2))
        assert_serves_the_walk(store)
        store.insert((4, 4), "after")
        with start_trace("flushes") as trace:
            read(store)
        assert merged_keys(trace) == [1]


def test_write_rebalance_read_merges_the_written_keys():
    """A rebalance moves no key and rebuilds every bucket in walk order,
    so the keys written before it still merge into the base."""
    store = _store("sharded")
    store.bulk_load(GRID)
    read(store)
    store.insert((0, 7), "x")
    assert store.delete((1, 1))
    store.rebalance(3)
    with start_trace("flushes") as trace:
        read(store)
    assert merged_keys(trace) == [2]


class TestKeyDtypeThroughTheMerge:
    """A z-order curve of side 2**32 keys its top corner 2**64 - 1, past
    what an int64 column holds: the merged column turns ``object`` when
    that key arrives and ``int64`` again when it leaves."""

    SIDE = 2**32
    TOP = (SIDE - 1, SIDE - 1)

    def test_int64_object_int64(self):
        store = SFCIndex(make_curve("zorder", self.SIDE, 2), page_capacity=2)
        for point in GRID:
            store.insert(point)
        store.flush()
        assert store.page_layout.keys.dtype == np.int64
        universe = Rect((0, 0), self.TOP)
        with start_trace("flushes") as trace:
            store.insert(self.TOP)
            read(store, universe)
            assert store.page_layout.keys.dtype == object
            assert store.delete(self.TOP)
            read(store, universe)
            assert store.page_layout.keys.dtype == np.int64
        assert merged_keys(trace) == [1, 1]


cells = st.tuples(st.integers(0, SIDE - 1), st.integers(0, SIDE - 1))
payloads = st.sampled_from([None, 0, 1, 2])
writes = st.one_of(
    st.tuples(st.just("insert"), cells, payloads),
    st.tuples(st.just("delete"), cells, st.one_of(st.just(ANY), payloads)),
)
#: Writes and reads are drawn twice as often as the rest.
ops = st.one_of(
    writes,
    writes,
    st.just(("read",)),
    st.just(("read",)),
    st.just(("clear",)),
    st.tuples(st.just("bulk"), st.lists(cells, min_size=1, max_size=6)),
    st.just(("flush",)),
    st.tuples(st.just("migrate"), st.integers(0, 1)),
)
CURVES = ["onion", "hilbert", "zorder"]
#: Few distinct cells, so most hold several records.
initial = st.lists(
    st.tuples(st.integers(0, 3), st.integers(0, SIDE - 1)), min_size=1, max_size=80
)


def _run(store, load, script):
    """Run ``script`` on ``store``, checking the layout after every read."""
    with pytest.MonkeyPatch.context() as patch:
        # The fraction only picks the path.  At 1, every read after
        # writes to a non-empty base merges, so the script exercises the
        # merge as often as it can; TestFlushPath covers the fraction.
        patch.setattr(store_module, "_MERGE_FRACTION", 1.0)
        store.bulk_load(load, payloads=[i % 3 for i in range(len(load))])
        read(store)
        for op in script:
            kind = op[0]
            if kind == "insert":
                store.insert(op[1], op[2])
            elif kind == "delete":
                store.delete(op[1], op[2])
            elif kind == "read":
                read(store)
            elif kind == "clear":
                for cell in GRID:
                    for record in store.point_query(cell):
                        assert store.delete(cell, record.payload)
                assert len(store) == 0
            elif kind == "bulk":
                store.bulk_load(op[1])
            elif kind == "flush":  # the second has no writes since the first
                for _ in range(2):
                    store.flush()
                    assert_serves_the_walk(store)
            elif kind == "migrate":  # to one of the two other curves
                target = [name for name in CURVES if name != store.curve.name][op[1]]
                store.migrate_to(make_curve(target, SIDE, 2))
                assert_serves_the_walk(store)
            elif kind == "rebalance":
                store.rebalance(op[1])
        read(store)


@settings(max_examples=100, deadline=None)
@given(load=initial, script=st.lists(ops, max_size=30))
def test_merged_layout_equals_walked_layout(load, script):
    _run(_store("single"), load, script)


@settings(max_examples=100, deadline=None)
@given(
    load=initial,
    script=st.lists(
        st.one_of(ops, st.tuples(st.just("rebalance"), st.integers(1, 3))), max_size=30
    ),
)
def test_merged_layout_equals_walked_layout_sharded(load, script):
    _run(_store("sharded"), load, script)
