"""Executor: facade equivalence with the pre-engine scan, batch execution."""

import bisect

import numpy as np
import pytest

from repro.core.runs import merge_runs_with_gaps, query_runs
from repro.curves import make_curve
from repro.engine import ExecutionPolicy
from repro.geometry import Rect
from repro.index import SFCIndex


def build_index(name, side, points, page_capacity=8, **kwargs):
    index = SFCIndex(make_curve(name, side, 2), page_capacity=page_capacity, **kwargs)
    index.bulk_load([tuple(p) for p in points], payloads=range(len(points)))
    index.flush()
    return index


def seed_range_query(index, rect, gap_tolerance=0):
    """The pre-engine ``SFCIndex.range_query`` loop, verbatim.

    Replayed against the index internals so the facade can be checked
    byte-for-byte (records *and* their order, plus every I/O counter).
    """
    rect.check_fits(index.curve.side)
    directory = index.page_layout
    runs = query_runs(index.curve, rect)
    scan_runs = merge_runs_with_gaps(runs, gap_tolerance) if gap_tolerance else runs
    seeks_before = index.disk.stats.seeks
    seq_before = index.disk.stats.sequential_reads
    reader = index.buffer_pool.read if index.buffer_pool is not None else index.disk.read
    records = []
    over_read = 0
    for start, end in scan_runs:
        page_pos = bisect.bisect_left(directory.first_keys, start) - 1
        page_pos = max(page_pos, 0)
        while page_pos < len(directory.page_ids):
            first_key = directory.first_keys[page_pos]
            if first_key > end:
                break
            page = reader(directory.page_ids[page_pos])
            if page[-1][0] >= start:
                for key, record in page:
                    if start <= key <= end:
                        if rect.contains(record.point):
                            records.append(record)
                        else:
                            over_read += 1
            if page[-1][0] > end:
                break
            page_pos += 1
    return (
        records,
        len(scan_runs),
        index.disk.stats.seeks - seeks_before,
        index.disk.stats.sequential_reads - seq_before,
        over_read,
    )


class TestFacadeEquivalence:
    @pytest.mark.parametrize("name", ["onion", "hilbert", "zorder"])
    @pytest.mark.parametrize("gap", [0, 6, 50])
    def test_range_query_identical_to_seed_scan(self, name, gap, rng):
        """Acceptance: the facade reproduces the pre-engine behavior
        byte for byte — same records in the same order, same counters."""
        points = rng.integers(0, 16, size=(400, 2))
        via_engine = build_index(name, 16, points)
        reference = build_index(name, 16, points)
        for _ in range(25):
            lo = rng.integers(0, 16, size=2)
            hi = np.minimum(lo + rng.integers(0, 9, size=2), 15)
            rect = Rect(tuple(int(l) for l in lo), tuple(int(h) for h in hi))
            result = via_engine.range_query(rect, gap_tolerance=gap)
            records, runs, seeks, sequential, over = seed_range_query(
                reference, rect, gap_tolerance=gap
            )
            assert result.records == records  # identical order, not just set
            assert result.runs == runs
            assert result.over_read == over
            # exact page spans may skip the seed's speculative extra read
            # before a page-aligned run start, never add pages
            assert result.pages_read <= seeks + sequential

    def test_facade_equivalence_with_buffer_pool(self, rng):
        points = rng.integers(0, 16, size=(300, 2))
        via_engine = build_index("hilbert", 16, points, buffer_pages=16)
        reference = build_index("hilbert", 16, points, buffer_pages=16)
        for _ in range(20):
            lo = rng.integers(0, 16, size=2)
            hi = np.minimum(lo + rng.integers(0, 7, size=2), 15)
            rect = Rect(tuple(int(l) for l in lo), tuple(int(h) for h in hi))
            result = via_engine.range_query(rect)
            records, runs, seeks, sequential, over = seed_range_query(reference, rect)
            assert result.records == records
            assert result.pages_read <= seeks + sequential


class TestBatchExecution:
    def test_batch_results_keep_caller_order(self, rng):
        points = rng.integers(0, 16, size=(400, 2))
        index = build_index("onion", 16, points)
        rects = [
            Rect.from_origin((int(x), int(y)), (3, 3))
            for x, y in rng.integers(0, 13, size=(30, 2))
        ]
        batch = index.range_query_batch(rects)
        assert len(batch.results) == len(rects)
        for rect, result in zip(rects, batch.results):
            expected = sorted(
                i for i, p in enumerate(points) if rect.contains(tuple(p))
            )
            assert sorted(r.payload for r in result.records) == expected

    def test_executed_order_sorted_by_first_key(self, rng):
        points = rng.integers(0, 16, size=(300, 2))
        index = build_index("hilbert", 16, points)
        rects = [
            Rect.from_origin((int(x), int(y)), (2, 2))
            for x, y in rng.integers(0, 14, size=(20, 2))
        ]
        batch = index.range_query_batch(rects)
        plans = [index.plan(r) for r in rects]  # cache returns the same plans
        first_keys = [plans[i].first_key for i in batch.executed_order]
        assert first_keys == sorted(first_keys)

    def test_aggregate_counters_sum_results(self, rng):
        points = rng.integers(0, 16, size=(300, 2))
        index = build_index("zorder", 16, points)
        rects = [
            Rect.from_origin((int(x), int(y)), (4, 4))
            for x, y in rng.integers(0, 12, size=(25, 2))
        ]
        batch = index.range_query_batch(rects, gap_tolerance=4)
        assert batch.total_seeks == sum(r.seeks for r in batch.results)
        assert batch.total_sequential_reads == sum(
            r.sequential_reads for r in batch.results
        )
        assert batch.total_over_read == sum(r.over_read for r in batch.results)
        assert batch.total_pages_read == batch.total_seeks + batch.total_sequential_reads
        assert batch.total_records == sum(len(r.records) for r in batch.results)
        assert batch.cost() == pytest.approx(
            sum(r.cost() for r in batch.results)
        )

    def test_batch_beats_loop_on_500_rect_workload(self, rng):
        """Acceptance: >= 500 rects batched need fewer total seeks than
        the equivalent query-at-a-time loop."""
        points = rng.integers(0, 32, size=(2000, 2))
        index = build_index("hilbert", 32, points, page_capacity=4)
        a = rng.integers(0, 32, size=(500, 2))
        b = rng.integers(0, 32, size=(500, 2))
        rects = [
            Rect(tuple(map(int, np.minimum(x, y))), tuple(map(int, np.maximum(x, y))))
            for x, y in zip(a, b)
        ]
        index.disk.reset_stats()
        loop_seeks = sum(index.range_query(r).seeks for r in rects)
        index.disk.reset_stats()
        batch = index.range_query_batch(rects)
        assert batch.total_seeks < loop_seeks
        # batching trades nothing for correctness
        for rect, result in zip(rects, batch.results):
            assert len(result.records) == sum(
                1 for p in points if rect.contains(tuple(p))
            )

    def test_batch_with_policy_object(self):
        index = build_index("hilbert", 16, [(x, y) for x in range(16) for y in range(16)])
        rects = [Rect((1, 1), (12, 12)), Rect((3, 2), (14, 10))]
        batch = index.range_query_batch(rects, policy=ExecutionPolicy(gap_tolerance=16))
        assert batch.total_over_read > 0
        for rect, result in zip(rects, batch.results):
            assert len(result.records) == rect.volume

    def test_empty_batch(self):
        index = build_index("onion", 8, [(0, 0), (1, 1)])
        batch = index.range_query_batch([])
        assert batch.results == []
        assert batch.total_seeks == 0
        assert batch.total_records == 0


class TestBufferPoolWiring:
    """The executor's optional page cache (pool=...) and its accounting."""

    def test_pool_reader_is_default_when_pool_given(self):
        from repro.engine import Executor
        from repro.storage.buffer import BufferPool

        index = build_index(
            "onion", 16, [(x, y) for x in range(16) for y in range(16)]
        )
        pool = BufferPool(index.disk, capacity=128)
        executor = Executor(index.disk, index.page_layout, pool=pool)
        plan = index.plan(Rect((2, 2), (9, 9)))
        cold = executor.execute(plan)
        assert pool.stats.misses == cold.pages_read > 0
        # Warm pass: every page resident, nothing reaches the disk.
        index.disk.reset_stats()
        warm = executor.execute(plan)
        assert warm.records == cold.records
        assert warm.pages_read == 0
        assert pool.stats.hits >= cold.pages_read

    def test_index_buffer_pages_served_through_pool(self):
        index = build_index(
            "onion", 16, [(x, y) for x in range(16) for y in range(16)],
            buffer_pages=256,
        )
        rect = Rect((3, 3), (12, 12))
        first = index.range_query(rect)
        assert first.pages_read > 0
        second = index.range_query(rect)
        assert second.records == first.records
        assert second.pages_read == 0  # warm pages never touch the disk
