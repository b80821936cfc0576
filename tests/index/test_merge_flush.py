"""Merge-on-flush: every read serves the arrival-order model.

The store's sorted key and record columns are its only ordered copy of
the records.  Every write notes each key it changed with that key's
current B+-tree bucket, and the next read merges those buckets into the
columns: the run of each noted key is replaced, every other run is
kept.  A bulk load into an empty store hands its sorted columns over
instead, with no keys to merge.  Every read here is compared with an
:class:`~layout_oracle.ArrivalModel` that saw the same writes, and
which reads nothing of the store: the same keys and dtype, the same
points and payloads in the same order, and the same page sizes.  A
checkpoint writes the record column a flush would pack, so its page
images must be the model's too.
"""

import tempfile

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro import Rect, SFCIndex, ShardedSFCIndex, make_curve, recover
from repro.api import ANY
from repro.obs import start_trace
from repro.storage.pagefile import load_pages

from layout_oracle import Modelled

SIDE = 8
CAPACITY = 3
UNIVERSE = Rect((0, 0), (SIDE - 1, SIDE - 1))
#: One record in every cell: 64 records.
GRID = [(x, y) for x in range(SIDE) for y in range(SIDE)]


def _store(kind, **durable):
    curve = make_curve("onion", SIDE, 2)
    if kind == "single":
        store = SFCIndex(curve, page_capacity=CAPACITY, **durable)
    else:
        store = ShardedSFCIndex(curve, num_shards=2, page_capacity=CAPACITY, **durable)
    return Modelled(store)


def assert_shard_loads(both):
    """Each shard's load is the number of the model's keys in its interval."""
    store = both.store
    keys = [key for key, _, _ in both.model.layout(store.curve)]
    assert store.shard_loads == tuple(
        sum(lo <= key <= hi for key in keys) for lo, hi in store.shards
    )
    assert sum(store.shard_loads) == len(store)


def read(both, universe=UNIVERSE):
    """A full-universe range query, checked against the model (and, on a
    sharded store, its shard loads too)."""
    result = both.store.range_query(universe)
    assert len(result.records) == len(both.model)
    both.model.assert_served(both.store)
    if isinstance(both.store, ShardedSFCIndex):
        assert_shard_loads(both)


def assert_checkpoint_holds_the_model(both):
    """A checkpoint's page images are the model's ``(point, payload)``
    pairs in key order, cut into pages of the store's capacity."""
    store = both.store
    manifest = store.checkpoint(compact=True)
    pages = load_pages(store.durability.root, manifest)
    assert pages == both.model.page_images(store.curve, CAPACITY)


def merged_keys(trace):
    """Each flush span's ``merged_keys``, in order."""
    return [span.attrs["merged_keys"] for span in trace.find("flush")]


@pytest.mark.parametrize("kind", ["single", "sharded"])
class TestFlushPath:
    def test_flush_span_names_the_path(self, kind):
        both = _store(kind)
        both.bulk_load(GRID)
        with start_trace("flushes") as trace:
            read(both)  # the load into an empty store left its columns
            both.insert((1, 2), "a")
            read(both)
            both.insert((1, 2), "b")
            both.insert((5, 6), "c")
            assert both.delete((3, 3))
            read(both)
            both.store.flush()  # no writes since the last install
            both.bulk_load([(5, 5)])
            read(both)  # a load into a non-empty store notes its keys
            for x in range(SIDE):  # 8 keys
                both.insert((x, 0), "d")
            read(both)
            both.empty()
            both.bulk_load(GRID)
            read(both)  # a store emptied by deletes takes the load's columns
            both.empty()
            both.bulk_load(GRID)
            both.bulk_load([(5, 5), (6, 6), (5, 5)])
            read(both)  # the second load found a non-empty store
        assert merged_keys(trace) == [0, 1, 3, 0, 1, 8, 0, 2]

    def test_a_missed_delete_leaves_nothing_to_merge(self, kind):
        both = _store(kind)
        both.bulk_load(GRID, payloads=["p"] * len(GRID))
        read(both)
        with start_trace("flushes") as trace:
            assert not both.delete((4, 4), "q")
            assert both.delete((2, 2), "p")
            assert not both.delete((2, 2))
            read(both)
        assert merged_keys(trace) == [1]
        assert both.store.point_query((2, 2)) == []

    def test_deleting_every_record_merges_to_an_empty_layout(self, kind):
        both = _store(kind)
        cells = [(2, 2)] * 40 + [(6, 1)] * 24
        both.bulk_load(cells, payloads=range(len(cells)))
        read(both)
        with start_trace("flushes") as trace:
            both.empty()
            read(both)
        assert merged_keys(trace) == [2]
        layout = both.store.page_layout
        assert (layout.num_pages, layout.keys.dtype) == (0, np.int64)

    def test_a_write_after_migration_merges_into_the_new_columns(self, kind):
        both = _store(kind)
        both.bulk_load(GRID)
        read(both)
        both.insert((2, 5), "before")
        both.store.migrate_to(make_curve("hilbert", SIDE, 2))
        both.model.assert_served(both.store)
        both.insert((4, 4), "after")
        with start_trace("flushes") as trace:
            read(both)
        assert merged_keys(trace) == [1]


def test_write_rebalance_read_merges_the_written_keys():
    """A rebalance cuts at the current key column, so it merges the keys
    written before it, and the read after it has none left to merge."""
    both = _store("sharded")
    both.bulk_load(GRID)
    read(both)
    both.insert((0, 7), "x")
    assert both.delete((1, 1))
    both.store.rebalance(3)
    with start_trace("flushes") as trace:
        read(both)
    assert merged_keys(trace) == [0]


class TestKeyDtypeThroughTheMerge:
    """A z-order curve of side 2**32 keys its top corner 2**64 - 1, past
    what an int64 column holds: the merged column turns ``object`` when
    that key arrives and ``int64`` again when it leaves."""

    SIDE = 2**32
    TOP = (SIDE - 1, SIDE - 1)

    def test_int64_object_int64(self):
        both = Modelled(SFCIndex(make_curve("zorder", self.SIDE, 2), page_capacity=2))
        for point in GRID:
            both.insert(point)
        both.store.flush()
        assert both.store.page_layout.keys.dtype == np.int64
        universe = Rect((0, 0), self.TOP)
        with start_trace("flushes") as trace:
            both.insert(self.TOP)
            read(both, universe)
            assert both.store.page_layout.keys.dtype == object
            assert both.delete(self.TOP)
            read(both, universe)
            assert both.store.page_layout.keys.dtype == np.int64
        assert merged_keys(trace) == [1, 1]

    @pytest.mark.parametrize("kind", ["single", "sharded"])
    def test_a_merge_without_packing_keeps_the_largest_int64_exact(self, kind):
        """The key 2**63 - 1 fits int64, but an int64 column holds only
        keys below it.  A checkpoint, or a sharded store's shard loads,
        installs the merged columns without packing them; the column
        holding that key must still be ``object``, or the next merge's
        clamped search of 2**63 finds the run of 2**63 - 1 and drops
        its record."""
        curve = make_curve("zorder", self.SIDE, 2)
        edge = 2**63 - 1
        universe = Rect((0, 0), self.TOP)
        with tempfile.TemporaryDirectory(prefix="merge-flush-") as root:
            if kind == "single":
                store = SFCIndex(
                    curve, page_capacity=CAPACITY, durable_path=root, durable_sync=False
                )
            else:
                store = ShardedSFCIndex(
                    curve,
                    num_shards=8,
                    page_capacity=CAPACITY,
                    durable_path=root,
                    durable_sync=False,
                )
            both = Modelled(store)
            try:
                both.insert(curve.point(edge), "edge")
                if kind == "single":
                    store.checkpoint()
                else:
                    assert sum(store.shard_loads) == len(store) == 1
                both.insert(curve.point(edge + 1), "past")
                read(both, universe)
                assert store.page_layout.keys.tolist() == [edge, edge + 1]
                assert_checkpoint_holds_the_model(both)
            finally:
                store.durability.close()
            recovered = recover(root, sync=False)
            try:
                assert len(recovered.range_query(universe).records) == 2
                both.model.assert_served(recovered)
            finally:
                recovered.durability.close()


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


def _run(both, load, script):
    """Run ``script`` on a store and its model, checking the layout after
    every read."""
    store = both.store
    both.bulk_load(load, payloads=[i % 3 for i in range(len(load))])
    read(both)
    for op in script:
        kind = op[0]
        if kind == "insert":
            both.insert(op[1], op[2])
        elif kind == "delete":
            both.delete(op[1], op[2])
        elif kind == "read":
            read(both)
        elif kind == "clear":
            both.empty()
        elif kind == "bulk":
            both.bulk_load(op[1])
        elif kind == "flush":  # the second has no writes since the first
            for _ in range(2):
                store.flush()
                both.model.assert_served(store)
        elif kind == "migrate":  # to one of the two other curves
            target = [name for name in CURVES if name != store.curve.name][op[1]]
            store.migrate_to(make_curve(target, SIDE, 2))
            both.model.assert_served(store)
        elif kind == "rebalance":
            store.rebalance(op[1])
        elif kind == "checkpoint":
            assert_checkpoint_holds_the_model(both)
    read(both)


@settings(max_examples=100, deadline=None)
@given(load=initial, script=st.lists(ops, max_size=30))
# A base key deleted to empty leaves the tree, and its insert files a
# new bucket: the merge must take that one, not the emptied one.
@example(
    load=[(1, 1), (2, 2)], script=[("delete", (1, 1), ANY), ("insert", (1, 1), 2)]
)
def test_merged_layout_equals_the_model(load, script):
    _run(_store("single"), load, script)


@settings(max_examples=100, deadline=None)
@given(
    load=initial,
    script=st.lists(
        st.one_of(ops, st.tuples(st.just("rebalance"), st.integers(1, 3))), max_size=30
    ),
)
def test_merged_layout_equals_the_model_sharded(load, script):
    _run(_store("sharded"), load, script)


#: Checkpoints between the other ops: they take the current columns,
#: which must be the model's.
checkpointed = st.lists(st.one_of(ops, st.just(("checkpoint",))), max_size=30)


def _run_durable(kind, load, script):
    with tempfile.TemporaryDirectory(prefix="merge-flush-") as root:
        both = _store(kind, durable_path=root, durable_sync=False)
        try:
            _run(both, load, script + [("checkpoint",)])
        finally:
            both.store.durability.close()


@settings(max_examples=50, deadline=None)
@given(load=initial, script=checkpointed)
def test_checkpoint_images_equal_the_model(load, script):
    _run_durable("single", load, script)


@settings(max_examples=50, deadline=None)
@given(
    load=initial,
    script=st.lists(
        st.one_of(
            ops, st.just(("checkpoint",)), st.tuples(st.just("rebalance"), st.integers(1, 3))
        ),
        max_size=30,
    ),
)
def test_checkpoint_images_equal_the_model_sharded(load, script):
    _run_durable("sharded", load, script)
