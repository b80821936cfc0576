"""Planner: run construction paths, policies, layout handling."""

import numpy as np
import pytest

from repro.analysis.exact import exact_average_clustering
from repro.api import Query
from repro.core.runs import merge_runs_with_gaps, query_runs, query_runs_vectorized
from repro.curves import OnionCurve2D, make_curve
from repro.curves.base import SpaceFillingCurve
from repro.engine import ExecutionPolicy, Planner
from repro.errors import InvalidQueryError
from repro.geometry import Rect
from repro.index import SFCIndex, ShardedSFCIndex


class TestRunConstruction:
    @pytest.mark.parametrize("name", ["onion", "hilbert", "zorder", "gray", "snake"])
    def test_vectorized_runs_match_query_runs(self, name, rng):
        curve = make_curve(name, 16, 2)
        for _ in range(25):
            lo = rng.integers(0, 16, size=2)
            hi = [min(int(l) + int(e), 15) for l, e in zip(lo, rng.integers(0, 9, 2))]
            rect = Rect(tuple(int(l) for l in lo), tuple(hi))
            assert query_runs_vectorized(curve, rect) == query_runs(curve, rect)

    def test_planner_small_rects_use_vector_path(self, rng):
        curve = make_curve("hilbert", 32, 2)
        planner = Planner(curve)
        for _ in range(20):
            lo = rng.integers(0, 24, size=2)
            rect = Rect.from_origin(tuple(int(l) for l in lo), (8, 8))
            assert planner._use_vectorized(rect)
            assert planner.key_runs(rect) == query_runs(curve, rect)

    def test_vector_path_requires_true_kernel(self):
        class LoopCurve(SpaceFillingCurve):
            def _index_impl(self, cell):
                return cell[1] * self.side + cell[0]

            def _point_impl(self, key):
                return (key % self.side, key // self.side)

        planner = Planner(LoopCurve(8, 2))
        assert planner._has_vector_kernel is False
        # still correct through the generic path
        runs = planner.key_runs(Rect((1, 1), (3, 2)))
        assert runs == query_runs(LoopCurve(8, 2), Rect((1, 1), (3, 2)))

    def test_oversized_rect_rejected(self):
        planner = Planner(make_curve("onion", 8, 2))
        with pytest.raises(InvalidQueryError):
            planner.plan(Rect((0, 0), (8, 8)))

    def test_heuristic_vectorizes_small_not_large(self):
        """Default crossover is surface-aware: thin shells stay on the
        boundary path, chunky small rects take the bulk kernel."""
        planner = Planner(make_curve("hilbert", 64, 2))
        assert planner._use_vectorized(Rect.from_origin((0, 0), (4, 4)))
        assert not planner._use_vectorized(Rect.from_origin((0, 0), (60, 60)))

    def test_heuristic_matches_runs_regardless_of_path(self, rng):
        curve = make_curve("hilbert", 32, 2)
        planner = Planner(curve)
        for _ in range(15):
            lo = rng.integers(0, 16, size=2)
            lengths = tuple(int(v) for v in rng.integers(1, 17, size=2))
            rect = Rect.from_origin(tuple(int(l) for l in lo), lengths)
            assert planner.key_runs(rect) == query_runs(curve, rect)

    def test_exhaustive_only_curves_always_vectorize(self):
        """Curves with a kernel but no boundary/prefix capability would
        run the same exhaustive scan either way; take the direct call."""
        curve = make_curve("rowmajor", 16, 2)
        planner = Planner(curve)
        assert planner._has_vector_kernel
        assert planner._use_vectorized(Rect.from_origin((0, 0), (14, 14)))


class TestKernelFreeOnionReads:
    """2-D onion key runs follow from a rect's corners, so once the store
    is loaded no read keys a cell: with the curve kernels patched to
    raise, every read still answers exactly."""

    @pytest.mark.parametrize("num_shards", [1, 3])
    def test_reads_call_no_curve_kernel(self, num_shards, monkeypatch, rng):
        side = 16
        curve = make_curve("onion", side, 2)
        if num_shards == 1:
            store = SFCIndex(curve, page_capacity=4)
        else:
            store = ShardedSFCIndex(curve, num_shards=num_shards, page_capacity=4)
        cells = rng.integers(0, side, size=(400, 2))
        points = [tuple(int(c) for c in p) for p in cells]
        store.bulk_load(points, payloads=range(len(points)))
        store.flush()

        def forbidden(self, array):
            raise AssertionError("curve kernel called on the read path")

        monkeypatch.setattr(OnionCurve2D, "index_many", forbidden)
        monkeypatch.setattr(OnionCurve2D, "point_many", forbidden)
        # The whole universe, a corner rect and a 1-wide column through
        # every ring, then random rects.
        rects = [Rect((0, 0), (15, 15)), Rect((0, 0), (5, 2)), Rect((7, 0), (7, 15))]
        for _ in range(20):
            lo = rng.integers(0, side, size=2)
            hi = np.minimum(lo + rng.integers(0, side, size=2), side - 1)
            rects.append(Rect(tuple(int(l) for l in lo), tuple(int(h) for h in hi)))
        for rect in rects:
            inside = sorted(i for i, p in enumerate(points) if rect.contains(p))
            executed = store.execute(Query.rect(rect)).records
            streamed = store.cursor(Query.rect(rect)).fetchall()
            assert sorted(record.payload for record in executed) == inside
            assert sorted(record.payload for record in streamed) == inside
        for center in [(0, 0), (7, 8), (15, 3)]:
            nearest = sorted(
                float(np.hypot(x - center[0], y - center[1])) for x, y in points
            )[:12]
            distances = store.knn(center, 12).distances
            assert [round(d, 9) for d in distances] == [round(d, 9) for d in nearest]


class TestExpectedSeeks:
    def test_matches_lemma1_exact_average(self):
        curve = make_curve("hilbert", 16, 2)
        planner = Planner(curve)
        for lengths in [(3, 3), (5, 9), (16, 1)]:
            assert planner.expected_seeks(lengths) == pytest.approx(
                exact_average_clustering(curve, lengths)
            )

    def test_cached_per_window_size(self):
        planner = Planner(make_curve("onion", 16, 2))
        first = planner.expected_seeks((4, 4))
        assert planner._expected_seeks == {(4, 4): first}
        assert planner.expected_seeks([4, 4]) == first  # list form hits cache

    def test_onion_beats_hilbert_on_near_full_windows(self):
        """Cost estimation without planning: the table ranks curves the
        way Theorem 1 / Lemma 5 say it must."""
        onion = Planner(make_curve("onion", 32, 2))
        hilbert = Planner(make_curve("hilbert", 32, 2))
        window = (30, 30)
        assert onion.expected_seeks(window) < hilbert.expected_seeks(window)


class TestPolicies:
    def test_gap_merging_matches_core_helper(self):
        curve = make_curve("hilbert", 16, 2)
        planner = Planner(curve)
        rect = Rect((1, 2), (13, 14))
        for tolerance in (0, 1, 8, 64):
            plan = planner.plan(rect, ExecutionPolicy(gap_tolerance=tolerance))
            expected = merge_runs_with_gaps(list(plan.runs), tolerance)
            assert list(plan.scan_runs) == expected

    def test_zero_tolerance_scan_runs_are_exact_runs(self):
        planner = Planner(make_curve("zorder", 8, 2))
        plan = planner.plan(Rect((1, 1), (6, 6)))
        assert plan.scan_runs == plan.runs

    def test_policy_recorded_on_plan(self):
        planner = Planner(make_curve("onion", 8, 2))
        policy = ExecutionPolicy(gap_tolerance=5)
        assert planner.plan(Rect((0, 0), (3, 3)), policy).policy == policy


class TestPlanMany:
    def test_plans_whole_workload(self, rng):
        curve = make_curve("onion", 16, 2)
        planner = Planner(curve)
        rects = [
            Rect.from_origin((int(x), int(y)), (4, 4))
            for x, y in rng.integers(0, 12, size=(10, 2))
        ]
        plans = planner.plan_many(rects)
        assert len(plans) == len(rects)
        for rect, plan in zip(rects, plans):
            assert plan.rect == rect

    def test_layout_attaches_page_spans(self):
        index = SFCIndex(make_curve("onion", 8, 2), page_capacity=2)
        index.bulk_load([(x, y) for x in range(8) for y in range(8)])
        index.flush()
        plans = index.planner.plan_many(
            [Rect((0, 0), (3, 3)), Rect((2, 2), (6, 6))], layout=index.page_layout
        )
        for plan in plans:
            assert plan.page_spans is not None
            assert len(plan.page_spans) == len(plan.scan_runs)
