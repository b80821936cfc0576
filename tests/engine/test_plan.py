"""QueryPlan: immutability, estimates, the clustering link, explain()."""

import bisect
import dataclasses

import pytest

from repro.api import merge_plans, pack_layout
from repro.core.clustering import clustering_number
from repro.curves import make_curve
from repro.engine import CostModel, ExecutionPolicy, Planner, QueryPlan
from repro.engine.executor import Record
from repro.errors import InvalidQueryError
from repro.geometry import Rect
from repro.index import SFCIndex
from repro.storage.disk import SimulatedDisk


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


def packed(page_capacity, keys):
    """A layout packed from ascending ``keys`` the way a flush packs one."""
    entries = [(key, Record((key,), i)) for i, key in enumerate(keys)]
    return pack_layout(SimulatedDisk(), page_capacity, entries)


def first_last_key_span(page_capacity, keys, start, end):
    """The page span of run ``[start, end]`` by the first/last-key rule:
    from the first page whose last key reaches ``start`` to the last
    page whose first key is still ``<= end``."""
    pages = [keys[i : i + page_capacity] for i in range(0, len(keys), page_capacity)]
    first = bisect.bisect_left([page[-1] for page in pages], start)
    last = bisect.bisect_right([page[0] for page in pages], end) - 1
    return first, last


class TestPageLayout:
    #: Ascending keys with duplicates: 24 fill every page at capacities
    #: 1, 2, 3 and 8; dropping the last leaves a partial last page at
    #: capacities 2, 3 and 8.
    KEYS = [2, 4, 4, 4, 4, 7, 9, 9, 13, 14, 14, 14, 14, 14, 20, 22, 25, 25, 25,
            30, 31, 33, 33, 36]

    @pytest.mark.parametrize("page_capacity", [1, 2, 3, 8])
    @pytest.mark.parametrize("count", [24, 23])
    def test_spans_follow_the_first_last_key_rule(self, page_capacity, count):
        """Every run over the key range, among them runs before the first
        key, past the last key, inside a gap within a page and over
        duplicates spilling across a page boundary."""
        keys = self.KEYS[:count]
        layout = packed(page_capacity, keys)
        for start in range(0, keys[-1] + 3):
            for end in range(start, keys[-1] + 3):
                expected = first_last_key_span(page_capacity, keys, start, end)
                assert layout.spans([(start, end)]) == (expected,), (start, end)

    def test_span_covers_run_pages(self):
        layout = packed(10, range(40))
        runs = [(0, 9), (5, 25), (10, 10), (31, 40)]
        assert layout.spans(runs) == ((0, 0), (0, 2), (1, 1), (3, 3))
        assert layout.spans([]) == ()

    def test_span_finds_duplicate_spill(self):
        # page 0 ends with key 10, page 1 starts with more copies of 10
        layout = packed(2, [0, 10, 10, 19, 20, 29])
        assert layout.spans([(10, 10)]) == ((0, 1),)

    def test_empty_span_before_first_page(self):
        layout = packed(2, [10, 19, 20, 29])
        ((first, last),) = layout.spans([(0, 5)])
        assert last < first

    def test_num_pages(self):
        layout = packed(8, [0, 3, 5])
        assert layout.num_pages == 1
        assert len(layout.pages[0]) == 3


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
