"""Differential suite: sharded execution ≡ single-index execution.

The shard-transparency contract of :class:`ShardedSFCIndex`: for the
same records, a range query through the sharded serving layer returns
**exactly** the same record list, seek count, sequential-read count,
pages read and over-read as the unsharded :class:`SFCIndex` — across
curves, shard counts 1–8, page capacities, gap tolerances, balanced
(irregular) shard maps, and batched workloads.  These are equality
assertions, not approximations: the scatter–gather executor charges the
same page sequence the single index reads, so any drift is a bug.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.curves import make_curve
from repro.geometry import Rect
from repro.index import SFCIndex, ShardedSFCIndex, balanced_shards

SIDE = 16
NUM_POINTS = 300
CURVE_NAMES = ["hilbert", "zorder", "onion", "gray"]
SHARD_COUNTS = list(range(1, 9))


def _points(curve_name):
    # Seeded per curve *deterministically* (str hash() varies with
    # PYTHONHASHSEED across processes, which would make failures
    # unreproducible — the opposite of this suite's point).
    rng = np.random.default_rng(2000 + 31 * CURVE_NAMES.index(curve_name))
    return [tuple(map(int, p)) for p in rng.integers(0, SIDE, size=(NUM_POINTS, 2))]


def _rects(seed, count=10):
    rng = np.random.default_rng(seed)
    rects = []
    for _ in range(count):
        lo = rng.integers(0, SIDE, size=2)
        hi = np.minimum(lo + rng.integers(0, 10, size=2), SIDE - 1)
        rects.append(Rect(tuple(lo), tuple(hi)))
    return rects


@pytest.fixture(scope="module")
def single_indexes():
    """One flushed single-node baseline per curve."""
    indexes = {}
    for name in CURVE_NAMES:
        index = SFCIndex(make_curve(name, SIDE, 2), page_capacity=4)
        index.bulk_load(_points(name))
        index.flush()
        indexes[name] = index
    return indexes


def _sharded(name, num_shards, page_capacity=4, **kwargs):
    index = ShardedSFCIndex(
        make_curve(name, SIDE, 2),
        num_shards=num_shards,
        page_capacity=page_capacity,
        **kwargs,
    )
    index.bulk_load(_points(name))
    index.flush()
    return index


def _assert_equivalent(a, b, context=""):
    """The full observational-equality contract between two results."""
    assert a.records == b.records, f"records differ {context}"
    assert a.seeks == b.seeks, f"seeks differ {context}"
    assert a.sequential_reads == b.sequential_reads, f"sequential differ {context}"
    assert a.pages_read == b.pages_read, f"pages differ {context}"
    assert a.over_read == b.over_read, f"over_read differs {context}"


def _park_heads(*indexes):
    """Park both disks' heads so seek accounting starts from the same
    state (the shared single-index baseline carries its head position
    across tests; a freshly built sharded index starts parked)."""
    for index in indexes:
        index.disk.reset_stats()


# ----------------------------------------------------------------------
# The core differential sweep: 4 curves x shard counts 1-8
# ----------------------------------------------------------------------
@pytest.mark.parametrize("name", CURVE_NAMES)
@pytest.mark.parametrize("num_shards", SHARD_COUNTS)
class TestShardTransparency:
    def test_range_queries_identical(self, single_indexes, name, num_shards):
        single = single_indexes[name]
        sharded = _sharded(name, num_shards)
        _park_heads(single, sharded)
        for i, rect in enumerate(_rects(seed=num_shards * 101 + 7)):
            _assert_equivalent(
                single.range_query(rect),
                sharded.range_query(rect),
                context=f"({name}, {num_shards} shards, rect {i} {rect})",
            )

    def test_gap_tolerance_identical(self, single_indexes, name, num_shards):
        single = single_indexes[name]
        sharded = _sharded(name, num_shards)
        _park_heads(single, sharded)
        for gap in (1, 5, 64):
            for rect in _rects(seed=num_shards * 13 + gap, count=4):
                _assert_equivalent(
                    single.range_query(rect, gap_tolerance=gap),
                    sharded.range_query(rect, gap_tolerance=gap),
                    context=f"({name}, {num_shards} shards, gap {gap}, {rect})",
                )

    def test_batch_identical(self, single_indexes, name, num_shards):
        single = single_indexes[name]
        sharded = _sharded(name, num_shards)
        _park_heads(single, sharded)
        rects = _rects(seed=num_shards * 29, count=20)
        batch_single = single.range_query_batch(rects)
        batch_sharded = sharded.range_query_batch(rects)
        assert batch_single.executed_order == batch_sharded.executed_order
        assert batch_single.total_seeks == batch_sharded.total_seeks
        assert (
            batch_single.total_sequential_reads
            == batch_sharded.total_sequential_reads
        )
        assert batch_single.total_pages_read == batch_sharded.total_pages_read
        assert batch_single.total_over_read == batch_sharded.total_over_read
        for i, (a, b) in enumerate(zip(batch_single.results, batch_sharded.results)):
            _assert_equivalent(a, b, context=f"({name}, {num_shards}, batch[{i}])")


# ----------------------------------------------------------------------
# Plans predict the same I/O the single index predicts
# ----------------------------------------------------------------------
@pytest.mark.parametrize("name", CURVE_NAMES)
def test_sharded_plan_wraps_the_single_plan(single_indexes, name):
    single = single_indexes[name]
    sharded = _sharded(name, num_shards=5)
    for rect in _rects(seed=3):
        splan = sharded.plan(rect)
        plan = single.plan(rect)
        assert splan.plan.runs == plan.runs
        assert splan.plan.scan_runs == plan.scan_runs
        assert splan.estimated_seeks == plan.estimated_seeks
        assert splan.estimated_pages == plan.estimated_pages
        assert splan.clustering == plan.clustering


# ----------------------------------------------------------------------
# Other axes: page capacity, balanced maps, rebalance
# ----------------------------------------------------------------------
@pytest.mark.parametrize("page_capacity", [1, 3, 16, 64])
def test_transparency_for_any_page_capacity(page_capacity):
    name = "onion"
    single = SFCIndex(make_curve(name, SIDE, 2), page_capacity=page_capacity)
    single.bulk_load(_points(name))
    single.flush()
    sharded = _sharded(name, num_shards=6, page_capacity=page_capacity)
    for rect in _rects(seed=page_capacity):
        _assert_equivalent(
            single.range_query(rect),
            sharded.range_query(rect),
            context=f"(page_capacity {page_capacity}, {rect})",
        )


def test_transparency_with_balanced_shard_map(single_indexes):
    name = "hilbert"
    curve = make_curve(name, SIDE, 2)
    keys = [int(k) for k in curve.index_many(np.asarray(_points(name)))]
    shards = balanced_shards(keys, 6, curve.size)
    sharded = ShardedSFCIndex(curve, shards=shards, page_capacity=4)
    sharded.bulk_load(_points(name))
    sharded.flush()
    _park_heads(single_indexes[name], sharded)
    for rect in _rects(seed=77):
        _assert_equivalent(
            single_indexes[name].range_query(rect),
            sharded.range_query(rect),
            context=f"(balanced map, {rect})",
        )


def test_transparency_survives_rebalance(single_indexes):
    name = "zorder"
    sharded = _sharded(name, num_shards=4)
    sharded.rebalance(num_shards=7)
    loads = sharded.shard_loads
    assert sum(loads) == NUM_POINTS
    assert max(loads) <= 2 * min(loads) + 1  # quantile cuts balance the load
    _park_heads(single_indexes[name], sharded)
    for rect in _rects(seed=91):
        _assert_equivalent(
            single_indexes[name].range_query(rect),
            sharded.range_query(rect),
            context=f"(rebalanced, {rect})",
        )


def test_mutations_preserve_transparency():
    """Insert/delete through the routed write paths, then re-compare."""
    name = "gray"
    curve = make_curve(name, SIDE, 2)
    single = SFCIndex(curve, page_capacity=4)
    sharded = ShardedSFCIndex(curve, num_shards=5, page_capacity=4)
    pts = _points(name)
    for index in (single, sharded):
        index.bulk_load(pts)
    for extra in ((0, 0), (15, 15), (7, 8), (7, 8)):
        single.insert(extra, payload="x")
        sharded.insert(extra, payload="x")
    assert single.delete((7, 8), payload="x")
    assert sharded.delete((7, 8), payload="x")
    single.flush()
    sharded.flush()
    assert len(single) == len(sharded)
    for rect in _rects(seed=123):
        _assert_equivalent(
            single.range_query(rect), sharded.range_query(rect), context=f"{rect}"
        )
    assert single.point_query((7, 8)) == sharded.point_query((7, 8))


# ----------------------------------------------------------------------
# Randomized property: hypothesis drives dataset, shards and query
# ----------------------------------------------------------------------
@settings(max_examples=30, deadline=None)
@given(
    name=st.sampled_from(CURVE_NAMES),
    num_shards=st.integers(1, 8),
    page_capacity=st.sampled_from([1, 2, 5]),
    gap=st.sampled_from([0, 3]),
    seed=st.integers(0, 2**31),
)
def test_transparency_property(name, num_shards, page_capacity, gap, seed):
    rng = np.random.default_rng(seed)
    side = 8
    curve = make_curve(name, side, 2)
    pts = [tuple(map(int, p)) for p in rng.integers(0, side, size=(60, 2))]
    single = SFCIndex(curve, page_capacity=page_capacity)
    sharded = ShardedSFCIndex(
        curve, num_shards=num_shards, page_capacity=page_capacity
    )
    single.bulk_load(pts)
    sharded.bulk_load(pts)
    lo = rng.integers(0, side, size=2)
    hi = np.minimum(lo + rng.integers(0, side, size=2), side - 1)
    rect = Rect(tuple(lo), tuple(hi))
    _assert_equivalent(
        single.range_query(rect, gap_tolerance=gap),
        sharded.range_query(rect, gap_tolerance=gap),
        context=f"({name}, {num_shards}, cap {page_capacity}, gap {gap}, {rect})",
    )
