"""Unit tests for the scatter–gather engine half (repro.engine.scatter)."""

import numpy as np
import pytest

from repro.curves import make_curve
from repro.engine import ExecutionPolicy, Planner
from repro.engine.executor import execution_order
from repro.engine.scatter import (
    ShardedPlanner,
    ShardStats,
    clip_runs,
    makespan,
)
from repro.errors import InvalidQueryError
from repro.geometry import Rect
from repro.index import ShardedSFCIndex, equal_key_shards
from repro.storage import replay_reads


# ----------------------------------------------------------------------
# clip_runs
# ----------------------------------------------------------------------
class TestClipRuns:
    def test_clips_to_interval(self):
        assert clip_runs([(0, 10)], (3, 7)) == [(3, 7)]
        assert clip_runs([(0, 10)], (0, 10)) == [(0, 10)]

    def test_drops_disjoint_runs(self):
        assert clip_runs([(0, 2), (8, 9)], (3, 7)) == []

    def test_boundary_touching_runs_survive(self):
        # Runs ending exactly at the shard's first key / starting at its last.
        assert clip_runs([(0, 3), (7, 9)], (3, 7)) == [(3, 3), (7, 7)]

    def test_clips_preserve_coverage(self):
        runs = [(2, 5), (9, 14), (20, 20)]
        shards = [(0, 4), (5, 11), (12, 30)]
        clipped = [run for shard in shards for run in clip_runs(runs, shard)]
        covered = sorted(k for start, end in clipped for k in range(start, end + 1))
        expected = sorted(k for start, end in runs for k in range(start, end + 1))
        assert covered == expected  # nothing lost, nothing duplicated


# ----------------------------------------------------------------------
# makespan
# ----------------------------------------------------------------------
class TestMakespan:
    def test_empty_is_zero(self):
        assert makespan([]) == 0.0

    def test_unbounded_workers_is_max(self):
        assert makespan([3.0, 5.0, 1.0]) == 5.0
        assert makespan([3.0, 5.0, 1.0], workers=10) == 5.0

    def test_single_worker_is_sum(self):
        assert makespan([3.0, 5.0, 1.0], workers=1) == 9.0

    def test_two_workers_balance(self):
        # LPT: 5 | 3 + 1 -> makespan 5.
        assert makespan([3.0, 5.0, 1.0], workers=2) == 5.0

    def test_monotone_in_workers(self):
        costs = [7.0, 3.0, 3.0, 2.0, 1.0]
        spans = [makespan(costs, workers=w) for w in (1, 2, 3, 4, 5)]
        assert spans == sorted(spans, reverse=True)

    def test_rejects_zero_workers(self):
        with pytest.raises(InvalidQueryError):
            makespan([1.0], workers=0)


# ----------------------------------------------------------------------
# ShardedPlanner
# ----------------------------------------------------------------------
class TestShardedPlanner:
    def setup_method(self):
        self.curve = make_curve("onion", 8, 2)
        self.shards = equal_key_shards(self.curve, 4)
        self.planner = ShardedPlanner(self.curve, self.shards)

    def test_global_plan_matches_single_node_planner(self):
        rect = Rect((1, 1), (6, 6))
        splan = self.planner.plan(rect)
        single = Planner(self.curve).plan(rect)
        assert splan.plan.runs == single.runs
        assert splan.plan.scan_runs == single.scan_runs
        assert splan.estimated_seeks == single.estimated_seeks

    def test_fragments_tile_the_runs(self):
        rect = Rect((0, 0), (7, 7))
        splan = self.planner.plan(rect)
        assert splan.shards_touched == 4
        covered = sorted(
            run for fragment in splan.fragments for run in fragment.plan.scan_runs
        )
        keys = [k for start, end in covered for k in range(start, end + 1)]
        expected = [
            k for start, end in splan.plan.scan_runs for k in range(start, end + 1)
        ]
        assert keys == sorted(expected)

    def test_untouched_shards_have_no_fragment(self):
        rect = Rect((0, 0), (0, 0))  # single cell -> single shard
        splan = self.planner.plan(rect)
        assert splan.shards_touched == 1

    def test_gap_merging_happens_before_clipping(self):
        rect = Rect((0, 1), (6, 7))
        policy = ExecutionPolicy(gap_tolerance=self.curve.size)
        splan = self.planner.plan(rect, policy)
        # One merged global run; its fragments are per-shard clips of it.
        assert len(splan.plan.scan_runs) == 1
        assert splan.shards_touched >= 1
        for fragment in splan.fragments:
            lo, hi = fragment.shard
            for start, end in fragment.plan.scan_runs:
                assert lo <= start <= end <= hi

    def test_shard_cut_tolerated_gap_clips_to_an_inexact_run(self):
        """A shard boundary inside a merged run's tolerated gap leaves a
        clipped run that is no clip of an exact run: it is filtered."""
        rect = Rect((0, 3), (5, 5))
        splan = self.planner.plan(rect, ExecutionPolicy(gap_tolerance=6))
        assert splan.plan.scan_runs == ((23, 25), (44, 63))
        assert splan.plan.scan_exact == (True, False)
        (boundary,) = [lo for lo, _ in self.shards if 44 < lo <= 63]
        # the boundary cuts the merged run inside a gap between exact runs
        assert not any(s <= k <= e for s, e in splan.plan.runs for k in (boundary - 1, boundary))
        by_shard = {f.shard[0]: f.plan for f in splan.fragments}
        clipped = by_shard[boundary]
        assert clipped.scan_runs == ((boundary, 63),)
        assert clipped.scan_exact == (False,)
        assert by_shard[16].scan_exact == (True,)  # untouched exact run

    def test_estimated_cost_adds_fanout_penalty(self):
        rect = Rect((0, 0), (7, 7))
        splan = self.planner.plan(rect)
        base = splan.plan.estimated_cost()
        assert splan.estimated_cost() == pytest.approx(
            base + splan.fanout_cost * splan.shards_touched
        )

    def test_parallel_cost_between_max_and_serial(self):
        rect = Rect((0, 0), (7, 7))
        splan = self.planner.plan(rect)
        fanout = splan.fanout_cost * splan.shards_touched
        frag_costs = [f.plan.estimated_cost() for f in splan.fragments]
        assert splan.estimated_parallel_cost() == pytest.approx(
            fanout + max(frag_costs)
        )
        assert splan.estimated_parallel_cost(workers=1) == pytest.approx(
            fanout + sum(frag_costs)
        )

    def test_explain_mentions_every_touched_shard(self):
        text = self.planner.plan(Rect((0, 0), (7, 7))).explain()
        assert "ShardedPlan" in text
        assert "4 touched of 4" in text
        for shard_id in range(4):
            assert f"shard {shard_id} keys" in text

    def test_rejects_bad_shard_maps(self):
        with pytest.raises(InvalidQueryError):
            ShardedPlanner(self.curve, [])
        with pytest.raises(InvalidQueryError):
            ShardedPlanner(self.curve, [(0, 10)])  # does not cover key space
        with pytest.raises(InvalidQueryError):
            ShardedPlanner(self.curve, [(0, 10), (12, 63)])  # gap at 11
        with pytest.raises(InvalidQueryError):
            ShardedPlanner(self.curve, [(0, 40), (30, 63)])  # overlap
        with pytest.raises(InvalidQueryError):
            # Degenerate inverted first shard (-1 + 1 == 0 fools a
            # contiguity-only check).
            ShardedPlanner(self.curve, [(0, -1), (0, 63)])

    def test_rejects_negative_fanout(self):
        with pytest.raises(InvalidQueryError):
            ShardedPlanner(self.curve, self.shards, fanout_cost=-1.0)


# ----------------------------------------------------------------------
# ScatterGatherExecutor
# ----------------------------------------------------------------------
def _points(side=16, points=300, seed=5):
    rng = np.random.default_rng(seed)
    return list(map(tuple, rng.integers(0, side, size=(points, 2))))


def _sharded_index(num_shards=4, side=16, points=300, seed=5, curve_name="hilbert"):
    curve = make_curve(curve_name, side, 2)
    index = ShardedSFCIndex(curve, num_shards=num_shards, page_capacity=4)
    index.bulk_load(_points(side, points, seed))
    index.flush()
    return index


def _random_rects(count, side=16, seed=41):
    rng = np.random.default_rng(seed)
    rects = []
    for _ in range(count):
        lo = rng.integers(0, side, size=2)
        hi = np.minimum(lo + rng.integers(0, side // 2, size=2), side - 1)
        rects.append(Rect(tuple(map(int, lo)), tuple(map(int, hi))))
    return rects


def _expected_shard_stats(index, stored, splan):
    """Brute-force ``per_shard`` of one sharded plan.

    Every shard the global scan runs reach is charged the clipped runs'
    page spans replayed from a parked head; its records are the stored
    points inside those clipped runs that lie in the rect, its over-read
    the ones that do not.
    """
    layout = index.page_layout
    rect = splan.plan.rect
    expected = []
    for shard_id, shard in enumerate(index.shards):
        runs = clip_runs(splan.plan.scan_runs, shard)
        if not runs:
            continue
        covered = [
            point for key, point in stored
            if any(start <= key <= end for start, end in runs)
        ]
        inside = sum(1 for point in covered if rect.contains(point))
        seeks, sequential = replay_reads(layout.span(start, end) for start, end in runs)
        expected.append(
            ShardStats(shard_id, len(runs), seeks, sequential, inside,
                       len(covered) - inside)
        )
    return expected


def _expected_batch_per_shard(index, stored, splans):
    """Brute-force batch ``per_shard``: each shard's per-query shares
    summed, its I/O replayed from its page positions deduplicated across
    the batch and taken in execution order, on the shard's own head."""
    layout = index.page_layout
    shares, positions = {}, {}
    for i in execution_order(splans):
        for stats in _expected_shard_stats(index, stored, splans[i]):
            shares.setdefault(stats.shard_id, []).append(stats)
            visited = positions.setdefault(stats.shard_id, [])
            shard = index.shards[stats.shard_id]
            for start, end in clip_runs(splans[i].plan.scan_runs, shard):
                first, last = layout.span(start, end)
                visited.extend(p for p in range(first, last + 1) if p not in visited)
    return [
        ShardStats(
            shard_id,
            sum(s.runs for s in shares[shard_id]),
            *replay_reads((p, p) for p in positions[shard_id]),
            sum(s.records for s in shares[shard_id]),
            sum(s.over_read for s in shares[shard_id]),
        )
        for shard_id in sorted(shares)
    ]


class TestScatterGatherExecutor:
    def test_records_arrive_in_global_key_order(self):
        index = _sharded_index()
        result = index.range_query(Rect((2, 2), (13, 13)))
        keys = [index.curve.index(r.point) for r in result.records]
        assert keys == sorted(keys)

    def test_per_shard_stats_sum_to_the_gather(self):
        index = _sharded_index()
        result = index.range_query(Rect((0, 0), (15, 15)))
        assert sum(s.records for s in result.per_shard) == len(result.records)
        assert sum(s.over_read for s in result.per_shard) == result.over_read
        assert result.fan_out == len(result.per_shard) <= index.num_shards

        # Exact attribution, shard by shard, against a brute force over
        # the stored (key, point) pairs: a boundary page's records must
        # land in the shard whose clipped run covers their key.
        rects = [Rect((0, 0), (15, 15))] + _random_rects(30)
        for curve_name in ("hilbert", "onion", "zorder"):
            index = _sharded_index(num_shards=5, curve_name=curve_name)
            stored = [(index.curve.index(p), p) for p in _points()]
            for gap in (0, 3):
                context = f"({curve_name}, gap {gap})"
                splans = [index.plan(rect, gap_tolerance=gap) for rect in rects]
                for rect, splan in zip(rects, splans):
                    result = index.range_query(rect, gap_tolerance=gap)
                    assert list(result.per_shard) == _expected_shard_stats(
                        index, stored, splan
                    ), f"{context} {rect}"
                # Random rects only: the whole-universe rect would make
                # every later query's pages already-seen for every shard.
                batch = index.range_query_batch(rects[1:], gap_tolerance=gap)
                for splan, result in zip(splans[1:], batch.results):
                    assert list(result.per_shard) == _expected_shard_stats(
                        index, stored, splan
                    ), f"{context} batch {splan.plan.rect}"
                assert list(batch.per_shard) == _expected_batch_per_shard(
                    index, stored, splans[1:]
                ), context

    def test_measured_seeks_match_plan_prediction(self):
        index = _sharded_index()
        rect = Rect((3, 0), (12, 9))
        splan = index.plan(rect)
        result = index.range_query(rect)
        assert result.seeks == splan.estimated_seeks
        assert result.pages_read == splan.estimated_pages

    def test_batch_per_shard_shares_scans(self):
        index = _sharded_index()
        rect = Rect((4, 4), (11, 11))
        batch = index.range_query_batch([rect] * 5)
        # Five identical queries: each shard reads its pages once for the
        # whole batch, so per-shard pages are bounded by one query's worth.
        single = index.range_query(rect)
        for stats in batch.per_shard:
            one = next(s for s in single.per_shard if s.shard_id == stats.shard_id)
            assert stats.pages_read <= one.pages_read

    def test_batch_parallel_cost_decreases_with_workers(self):
        index = _sharded_index(num_shards=8)
        rng = np.random.default_rng(11)
        rects = []
        for _ in range(40):
            lo = rng.integers(0, 16, size=2)
            hi = np.minimum(lo + rng.integers(0, 9, size=2), 15)
            rects.append(Rect(tuple(lo), tuple(hi)))
        batch = index.range_query_batch(rects)
        costs = [batch.parallel_cost(workers=w) for w in (1, 2, 4, 8)]
        assert costs == sorted(costs, reverse=True)
        assert costs[-1] < costs[0]
