"""Unit tests for the sharded serving layer (repro.index.sharded)."""

import numpy as np
import pytest

from repro.curves import make_curve
from repro.errors import InvalidQueryError
from repro.geometry import Rect
from repro.index import SFCIndex, ShardedSFCIndex, shard_of_key


def _build(num_shards=4, side=16, points=200, seed=9, **kwargs):
    curve = make_curve("onion", side, 2)
    index = ShardedSFCIndex(curve, num_shards=num_shards, page_capacity=8, **kwargs)
    rng = np.random.default_rng(seed)
    index.bulk_load(map(tuple, rng.integers(0, side, size=(points, 2))))
    return index


class TestConstruction:
    def test_default_map_is_equal_key_ranges(self):
        index = _build(num_shards=4)
        assert index.num_shards == 4
        assert index.shards[0][0] == 0
        assert index.shards[-1][1] == index.curve.size - 1

    def test_explicit_shard_map(self):
        curve = make_curve("onion", 8, 2)
        index = ShardedSFCIndex(curve, shards=[(0, 9), (10, 63)])
        assert index.shards == ((0, 9), (10, 63))

    def test_rejects_non_covering_map(self):
        curve = make_curve("onion", 8, 2)
        with pytest.raises(InvalidQueryError):
            ShardedSFCIndex(curve, shards=[(0, 30)])

    def test_rejects_bad_page_capacity(self):
        with pytest.raises(InvalidQueryError):
            ShardedSFCIndex(make_curve("onion", 8, 2), page_capacity=0)


class TestRouting:
    def test_inserts_land_in_their_shard(self):
        index = _build(points=0)
        index.insert((0, 0), payload="origin")
        shard_id = index.shard_of((0, 0))
        assert shard_id == shard_of_key(index.shards, index.curve.index((0, 0)))
        assert index.shard_loads[shard_id] == 1
        assert len(index) == 1

    def test_shard_loads_sum_to_len(self):
        index = _build(points=150)
        assert sum(index.shard_loads) == len(index) == 150

    def test_point_query_and_delete_route(self):
        index = _build(points=0)
        index.insert((3, 4), payload="a")
        index.insert((3, 4), payload="b")
        assert [r.payload for r in index.point_query((3, 4))] == ["a", "b"]
        assert index.delete((3, 4), payload="a")
        assert [r.payload for r in index.point_query((3, 4))] == ["b"]
        assert not index.delete((9, 9))
        assert len(index) == 1

    def test_bulk_load_with_payloads(self):
        index = _build(points=0)
        index.bulk_load([(1, 1), (2, 2)], payloads=["p", "q"])
        assert index.point_query((2, 2))[0].payload == "q"
        with pytest.raises(InvalidQueryError):
            index.bulk_load([(3, 3), (4, 4)], payloads=["only-one"])


class TestLayout:
    def test_flush_packs_pages_across_shard_boundaries(self):
        """The shared layout is identical to the unsharded index's."""
        index = _build(num_shards=5)
        index.flush()
        single = SFCIndex(index.curve, page_capacity=8)
        rng = np.random.default_rng(9)
        single.bulk_load(map(tuple, rng.integers(0, 16, size=(200, 2))))
        single.flush()
        assert index.page_layout.keys.tolist() == single.page_layout.keys.tolist()
        assert index.page_layout.num_pages == single.page_layout.num_pages

    def test_flush_bumps_epoch_and_invalidates_plans(self):
        index = _build()
        index.flush()
        epoch = index.epoch
        rect = Rect((0, 0), (7, 7))
        first = index.plan(rect)
        assert index.plan(rect) is first  # cached
        index.insert((0, 0))
        result = index.range_query(rect)  # reflushes: new epoch, fresh plan
        assert index.epoch == epoch + 1
        assert index.plan(rect) is not first
        assert any(r.point == (0, 0) for r in result.records)

    def test_query_flushes_lazily(self):
        index = _build(points=50)
        assert index.page_layout is None
        result = index.range_query(Rect((0, 0), (15, 15)))
        assert index.page_layout is not None
        assert len(result.records) == 50


class TestRebalance:
    def test_balances_skewed_load(self):
        curve = make_curve("onion", 16, 2)
        index = ShardedSFCIndex(curve, num_shards=4, page_capacity=8)
        rng = np.random.default_rng(2)
        # Hotspot: most records in one corner -> one shard overloaded.
        hot = rng.integers(0, 4, size=(300, 2))
        cold = rng.integers(0, 16, size=(60, 2))
        index.bulk_load(map(tuple, np.concatenate([hot, cold])))
        skew_before = max(index.shard_loads) - min(index.shard_loads)
        index.rebalance()
        loads = index.shard_loads
        assert sum(loads) == 360
        assert max(loads) - min(loads) < skew_before
        assert max(loads) <= 2 * min(loads) + 1

    def test_rebalance_can_change_shard_count(self):
        index = _build(num_shards=2)
        shards = index.rebalance(num_shards=6)
        assert index.shards == shards
        assert 1 <= index.num_shards <= 6

    def test_empty_index_rebalances_to_equal_ranges(self):
        index = _build(points=0)
        shards = index.rebalance(num_shards=3)
        assert len(shards) == 3
        assert shards[0][0] == 0 and shards[-1][1] == index.curve.size - 1


class TestResultSurface:
    def test_result_reports_fanout_and_parallel_cost(self):
        index = _build(num_shards=8)
        result = index.range_query(Rect((0, 0), (15, 15)))
        assert 1 <= result.fan_out <= 8
        # One worker serializes the per-shard replays (each from its own
        # parked head, so their sum is >= the canonical serial cost).
        one_worker = result.fanout_cost * result.fan_out + sum(
            s.cost() for s in result.per_shard
        )
        assert result.parallel_cost(workers=1) == pytest.approx(one_worker)
        assert result.parallel_cost() <= result.parallel_cost(workers=1)
        assert sum(s.cost() for s in result.per_shard) >= result.cost()

    def test_explain_is_shard_aware(self):
        index = _build(num_shards=4)
        text = index.explain(Rect((0, 0), (15, 15)))
        assert "ShardedPlan" in text
        assert "touched of 4" in text
        assert "identical to unsharded" in text

    def test_batch_reports_per_shard_totals(self):
        index = _build(num_shards=4)
        rects = [Rect((0, 0), (7, 7)), Rect((8, 8), (15, 15))]
        batch = index.range_query_batch(rects)
        assert batch.total_records == sum(len(r.records) for r in batch.results)
        assert batch.total_fan_out == sum(r.fan_out for r in batch.results)
        assert sum(s.records for s in batch.per_shard) == batch.total_records


class TestBufferPool:
    """buffer_pages wires an LRU pool into the scatter-gather gather side."""

    def test_warm_queries_never_touch_the_disk(self):
        index = _build(num_shards=4, buffer_pages=512)
        assert index.buffer_pool is not None
        rect = Rect((2, 2), (11, 11))
        cold = index.range_query(rect)
        assert cold.pages_read > 0
        warm = index.range_query(rect)
        assert warm.records == cold.records
        assert warm.pages_read == 0
        assert index.buffer_pool.stats.hits >= cold.pages_read

    def test_pool_invalidated_on_reflush_and_migration(self):
        index = _build(num_shards=2, buffer_pages=512)
        rect = Rect((1, 1), (9, 9))
        index.range_query(rect)
        assert index.buffer_pool.resident > 0
        index.insert((0, 0), payload="dirty")
        index.range_query(rect)  # auto-reflush must not serve stale pages
        index.migrate_to(make_curve("hilbert", 16, 2))
        cold = index.range_query(rect)
        assert cold.pages_read > 0  # post-cutover pass is cold again

    def test_disabled_by_default(self):
        assert _build().buffer_pool is None
