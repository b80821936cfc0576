"""QueryPlan: immutability, estimates, the clustering link, explain()."""

import dataclasses

import pytest

from repro.api import merge_plans
from repro.core.clustering import clustering_number
from repro.curves import make_curve
from repro.engine import CostModel, ExecutionPolicy, Planner, QueryPlan
from repro.engine.plan import PageLayout
from repro.errors import InvalidQueryError
from repro.geometry import Rect
from repro.index import SFCIndex


def full_grid_index(name="onion", side=8, page_capacity=1, **kwargs):
    index = SFCIndex(make_curve(name, side, 2), page_capacity=page_capacity, **kwargs)
    index.bulk_load([(x, y) for x in range(side) for y in range(side)])
    index.flush()
    return index


class TestExecutionPolicy:
    def test_default_is_exact(self):
        assert ExecutionPolicy().gap_tolerance == 0

    def test_negative_tolerance_rejected(self):
        with pytest.raises(InvalidQueryError):
            ExecutionPolicy(gap_tolerance=-1)

    def test_hashable_and_comparable(self):
        assert ExecutionPolicy(3) == ExecutionPolicy(3)
        assert hash(ExecutionPolicy(3)) == hash(ExecutionPolicy(3))
        assert ExecutionPolicy(3) != ExecutionPolicy(4)


class TestPageLayout:
    def test_span_covers_run_pages(self):
        layout = PageLayout(
            first_keys=[0, 10, 20, 30],
            page_ids=[0, 1, 2, 3],
            last_keys=[9, 19, 29, 39],
        )
        assert layout.span(0, 9) == (0, 0)
        assert layout.span(5, 25) == (0, 2)
        assert layout.span(10, 10) == (1, 1)  # page-aligned, no spill read
        assert layout.span(31, 40) == (3, 3)

    def test_span_finds_duplicate_spill(self):
        # page 0 ends with key 10, page 1 starts with more copies of 10
        layout = PageLayout(
            first_keys=[0, 10, 20], page_ids=[0, 1, 2], last_keys=[10, 19, 29]
        )
        assert layout.span(10, 10) == (0, 1)

    def test_empty_span_before_first_page(self):
        layout = PageLayout(first_keys=[10, 20], page_ids=[0, 1], last_keys=[19, 29])
        first, last = layout.span(0, 5)
        assert last < first

    def test_num_pages(self):
        layout = PageLayout(first_keys=[0], page_ids=[7], last_keys=[5])
        assert layout.num_pages == 1


class TestQueryPlanShape:
    def test_plan_is_immutable(self):
        index = full_grid_index()
        plan = index.plan(Rect((1, 1), (5, 5)))
        assert isinstance(plan, QueryPlan)
        with pytest.raises(dataclasses.FrozenInstanceError):
            plan.rect = Rect((0, 0), (1, 1))
        assert isinstance(plan.runs, tuple)
        assert isinstance(plan.scan_runs, tuple)
        assert isinstance(plan.page_spans, tuple)

    def test_clustering_counts_exact_runs(self, rng):
        curve = make_curve("hilbert", 16, 2)
        planner = Planner(curve)
        for _ in range(20):
            lo = rng.integers(0, 16, size=2)
            hi = [min(int(l) + int(e), 15) for l, e in zip(lo, rng.integers(0, 8, 2))]
            rect = Rect(tuple(int(l) for l in lo), tuple(hi))
            plan = planner.plan(rect)
            assert plan.clustering == clustering_number(curve, rect)

    def test_first_key_is_lowest_scanned(self):
        index = full_grid_index()
        plan = index.plan(Rect((2, 2), (5, 5)))
        assert plan.first_key == plan.scan_runs[0][0]
        assert plan.first_key == min(start for start, _ in plan.scan_runs)

    def test_gap_cells_counts_merged_slack(self):
        curve = make_curve("hilbert", 8, 2)
        planner = Planner(curve)
        rect = Rect((0, 1), (6, 7))
        exact = planner.plan(rect)
        assert exact.gap_cells == 0
        merged = planner.plan(rect, ExecutionPolicy(gap_tolerance=64))
        covered = sum(e - s + 1 for s, e in merged.scan_runs)
        assert merged.gap_cells == covered - rect.volume
        assert merged.num_scan_runs < exact.num_scan_runs


class TestScanExactness:
    """``QueryPlan.scan_exact``: a scan run skips the geometric filter
    exactly when it is one of the plan's exact key runs."""

    def test_gap_zero_every_scan_run_is_exact(self, rng):
        planner = Planner(make_curve("hilbert", 16, 2))
        for _ in range(20):
            lo = rng.integers(0, 16, size=2)
            hi = [min(int(l) + int(e), 15) for l, e in zip(lo, rng.integers(0, 9, 2))]
            plan = planner.plan(Rect(tuple(int(l) for l in lo), tuple(hi)))
            assert plan.scan_exact == (True,) * plan.num_scan_runs

    def test_gap_merged_runs_are_inexact_unmerged_exact(self):
        planner = Planner(make_curve("hilbert", 16, 2))
        plan = planner.plan(Rect((2, 3), (9, 11)), ExecutionPolicy(gap_tolerance=6))
        for (start, end), exact in zip(plan.scan_runs, plan.scan_exact):
            # an unmerged scan run covers one exact run, a merged one several
            covered = [run for run in plan.runs if start <= run[0] and run[1] <= end]
            assert exact == (len(covered) == 1)
        assert set(plan.scan_exact) == {True, False}

    def test_union_of_overlapping_rects_is_exact(self):
        index = full_grid_index("onion", side=16, page_capacity=4)
        plans = [index.plan(Rect((2, 2), (9, 8))), index.plan(Rect((6, 5), (13, 12)))]
        union = merge_plans(plans, index.page_layout)
        assert len(union.runs) < sum(len(plan.runs) for plan in plans)  # overlap
        assert union.scan_exact == (True,) * union.num_scan_runs


class TestEstimates:
    def test_estimated_seeks_equals_clustering_when_page_aligned(self, rng):
        """The acceptance link: page-aligned runs make the plan's seek
        estimate exactly the paper's clustering number."""
        for name in ("onion", "hilbert", "zorder"):
            index = full_grid_index(name, side=8, page_capacity=1)
            for _ in range(15):
                lo = rng.integers(0, 8, size=2)
                hi = [min(int(l) + int(e), 7) for l, e in zip(lo, rng.integers(0, 6, 2))]
                rect = Rect(tuple(int(l) for l in lo), tuple(hi))
                plan = index.plan(rect)
                assert plan.estimated_seeks == clustering_number(index.curve, rect)

    def test_estimates_match_measurement_on_parked_head(self, rng):
        index = full_grid_index("hilbert", side=16, page_capacity=4)
        for _ in range(15):
            lo = rng.integers(0, 16, size=2)
            hi = [min(int(l) + int(e), 15) for l, e in zip(lo, rng.integers(0, 9, 2))]
            rect = Rect(tuple(int(l) for l in lo), tuple(hi))
            plan = index.plan(rect)
            index.disk.reset_stats()  # parks the head, like the estimate assumes
            result = index.range_query(rect)
            assert result.seeks == plan.estimated_seeks
            assert result.sequential_reads == plan.estimated_sequential_reads
            assert result.pages_read == plan.estimated_pages
            assert result.cost() == pytest.approx(plan.estimated_cost())

    def test_layout_free_plan_uses_pure_model(self):
        curve = make_curve("onion", 8, 2)
        rect = Rect((1, 1), (6, 6))
        plan = Planner(curve).plan(rect)
        assert plan.page_spans is None
        assert plan.estimated_seeks == clustering_number(curve, rect)
        assert plan.estimated_sequential_reads == 0

    def test_estimated_cost_uses_cost_model(self):
        curve = make_curve("onion", 8, 2)
        model = CostModel(seek_cost=100.0, read_cost=1.0)
        plan = Planner(curve, cost_model=model).plan(Rect((0, 0), (7, 7)))
        seeks = plan.estimated_seeks
        assert plan.estimated_cost() == pytest.approx(seeks * 101.0)
        cheap = CostModel(seek_cost=1.0, read_cost=1.0)
        assert plan.estimated_cost(cheap) == pytest.approx(seeks * 2.0)

    def test_cross_curve_cost_ranking_without_io(self):
        """The paper's pitch: rank curves by estimated cost, no data needed."""
        rect = Rect((1, 1), (28, 28))
        costs = {}
        for name in ("onion", "hilbert"):
            curve = make_curve(name, 32, 2)
            costs[name] = Planner(curve).plan(rect).estimated_cost()
        assert costs["onion"] < costs["hilbert"]


class TestExplain:
    def test_explain_mentions_runs_and_estimates(self):
        index = full_grid_index("hilbert", side=8, page_capacity=2)
        text = index.explain(Rect((0, 1), (6, 7)))
        assert "QueryPlan" in text
        assert "estimated seeks" in text
        assert "run 0: keys [" in text

    def test_explain_truncates_long_plans(self):
        index = full_grid_index("zorder", side=16, page_capacity=1)
        plan = index.plan(Rect((1, 0), (14, 15)))
        text = plan.explain(max_runs=3)
        assert "more run(s)" in text
        assert text.count("run ") <= 5  # 3 runs + "scan runs" header slack
