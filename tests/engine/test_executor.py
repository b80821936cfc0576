"""Executor: facade equivalence with the pre-engine scan, batch execution."""

import bisect
import dataclasses

import numpy as np
import pytest

from repro.api import Query
from repro.core.runs import merge_runs_with_gaps, query_runs
from repro.curves import make_curve
from repro.engine import ExecutionPolicy, PageLayout, Planner, Record, ShardedPlanner
from repro.geometry import Rect
from repro.index import SFCIndex, ShardedSFCIndex


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
    # Each page's keys and records, cut from the layout's columns.
    cap = directory.capacity
    pages = [
        (directory.keys[i : i + cap].tolist(), directory.records[i : i + cap])
        for i in range(0, len(directory.records), cap)
    ]
    first_keys = [keys[0] for keys, _ in pages]
    records = []
    over_read = 0
    for start, end in scan_runs:
        page_pos = bisect.bisect_left(first_keys, start) - 1
        page_pos = max(page_pos, 0)
        while page_pos < len(directory.page_ids):
            first_key = first_keys[page_pos]
            if first_key > end:
                break
            reader(directory.page_ids[page_pos])
            page_keys, page_records = pages[page_pos]
            if page_keys[-1] >= start:
                for key, record in zip(page_keys, page_records):
                    if start <= key <= end:
                        if rect.contains(record.point):
                            records.append(record)
                        else:
                            over_read += 1
            if page_keys[-1] > end:
                break
            page_pos += 1
    return (
        records,
        len(scan_runs),
        index.disk.stats.seeks - seeks_before,
        index.disk.stats.sequential_reads - seq_before,
        over_read,
    )


class TestRecord:
    """A record is a slotted frozen value: no ``__dict__``, no assignment,
    equal and equally hashed when its fields are equal, and never equal
    to a plain ``(point, payload)`` tuple."""

    def test_slotted_and_frozen(self):
        record = Record((1, 2), "a")
        assert not hasattr(record, "__dict__")
        with pytest.raises(dataclasses.FrozenInstanceError):
            record.point = (3, 4)
        with pytest.raises(dataclasses.FrozenInstanceError):
            record.payload = "b"
        assert (record.point, record.payload) == ((1, 2), "a")
        assert repr(record) == "Record(point=(1, 2), payload='a')"

    def test_equal_fields_give_equal_records_and_hashes(self):
        assert Record((1, 2), "a") == Record((1, 2), "a")
        assert hash(Record((1, 2), "a")) == hash(Record((1, 2), "a"))
        assert Record((1, 2)) == Record((1, 2), None)
        assert Record((1, 2), "a") != Record((1, 2), "b")
        assert Record((1, 2), "a") != Record((2, 1), "a")
        assert len({Record((1, 2)), Record((1, 2)), Record((2, 1))}) == 2

    def test_not_a_tuple(self):
        assert Record((1, 2)) != ((1, 2), None)
        assert ((1, 2), None) != Record((1, 2))
        assert not isinstance(Record((1, 2)), tuple)


class TestFacadeEquivalence:
    #: Every registry curve that builds at side 16 (peano needs a power of 3).
    @pytest.mark.parametrize(
        "name",
        ["onion", "onion-nd", "hilbert", "zorder", "gray", "snake", "rowmajor", "columnmajor"],
    )
    @pytest.mark.parametrize("gap", [0, 6, 50])
    def test_range_query_identical_to_seed_scan(self, name, gap, rng):
        """Acceptance: the facade reproduces the pre-engine behavior
        byte for byte — same records in the same order, same counters.

        400 points on 256 cells at page capacities 1, 3 and 8: runs
        start and end mid-page, and duplicate keys straddle page
        boundaries, so key slicing must agree with the seed's
        per-record filter at every cut."""
        points = rng.integers(0, 16, size=(400, 2))
        for page_capacity in (1, 3, 8):
            via_engine = build_index(name, 16, points, page_capacity=page_capacity)
            reference = build_index(name, 16, points, page_capacity=page_capacity)
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
                # exact page spans may skip the seed's speculative extra
                # read before a page-aligned run start, never add pages
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


class TestExactRunsSkipTheFilter:
    """Records are found by key alone: a plan's exact runs hold exactly
    the keys of the query's cells, so no read path tests a record's
    geometry, at any gap tolerance.  With ``Rect.contains`` patched to
    raise, every read still answers exactly.  At gap 2 the two rects
    merge no runs; at gap 6 both do, and so does their union."""

    @staticmethod
    def _reads_never_test_geometry(num_shards, gap, monkeypatch, rng):
        curve = make_curve("onion", 16, 2)
        if num_shards == 1:
            store = SFCIndex(curve, page_capacity=4)
        else:
            store = ShardedSFCIndex(curve, num_shards=num_shards, page_capacity=4)
        points = [tuple(int(c) for c in p) for p in rng.integers(0, 16, size=(400, 2))]
        store.bulk_load(points, payloads=range(len(points)))
        store.flush()
        rect_a, rect_b = Rect((2, 3), (9, 11)), Rect((6, 8), (14, 15))
        center, k = (7, 7), 12

        def payloads(records):
            return sorted(record.payload for record in records)

        def reads():
            query = Query.rect(rect_a).hint(gap_tolerance=gap)
            union = Query.union_of([rect_a, rect_b]).hint(gap_tolerance=gap)
            return (
                payloads(store.execute(query).records),
                payloads(store.cursor(query).fetchall()),
                [round(d, 9) for d in store.knn(center, k).distances],
                payloads(store.execute(union).records),
            )

        def inside(*rects):
            return sorted(
                i for i, p in enumerate(points) if any(r.contains(p) for r in rects)
            )

        nearest = sorted(
            float(np.hypot(x - center[0], y - center[1])) for x, y in points
        )[:k]
        brute_force = (
            inside(rect_a),
            inside(rect_a),
            [round(d, 9) for d in nearest],
            inside(rect_a, rect_b),
        )
        # Planning legitimately tests geometry (boundary run
        # construction), so the first pass fills the plan cache with
        # every plan, kNN's expansion boxes included; the patched pass
        # below then only executes.
        assert reads() == brute_force
        misses = store.plan_cache.stats.misses
        merged = store.execute(Query.union_of([rect_a, rect_b]).hint(gap_tolerance=gap))
        assert (merged.over_read > 0) == (gap == 6)

        def forbidden(self, cell):
            raise AssertionError(f"geometric test of {cell} during a read")

        monkeypatch.setattr(Rect, "contains", forbidden)
        assert reads() == brute_force
        assert store.plan_cache.stats.misses == misses

    @pytest.mark.parametrize("num_shards", [1, 3])
    def test_gap_zero_reads_never_test_geometry(self, num_shards, monkeypatch, rng):
        self._reads_never_test_geometry(num_shards, 0, monkeypatch, rng)

    @pytest.mark.parametrize("num_shards", [1, 3])
    @pytest.mark.parametrize("gap", [2, 6])
    def test_gap_merged_reads_never_test_geometry(self, gap, num_shards, monkeypatch, rng):
        self._reads_never_test_geometry(num_shards, gap, monkeypatch, rng)


class TestCachedPlansSearchNothing:
    """A plan carries its scan runs' record positions from the search
    that found its page spans, so no read of a cached plan searches the
    key column again: with ``PageLayout.bounds`` patched to raise, every
    execution path still answers exactly."""

    @pytest.mark.parametrize("num_shards", [1, 3])
    @pytest.mark.parametrize("gap", [0, 2])
    def test_cached_plans_execute_without_a_search(self, num_shards, gap, monkeypatch, rng):
        curve = make_curve("onion", 16, 2)
        if num_shards == 1:
            store = SFCIndex(curve, page_capacity=4)
        else:
            store = ShardedSFCIndex(curve, num_shards=num_shards, page_capacity=4)
        points = [tuple(int(c) for c in p) for p in rng.integers(0, 16, size=(400, 2))]
        store.bulk_load(points, payloads=range(len(points)))
        store.flush()
        rect_a, rect_b = Rect((2, 3), (9, 11)), Rect((6, 8), (14, 15))
        center, k = (7, 7), 12

        def payloads(records):
            return sorted(record.payload for record in records)

        def query(rect):
            return Query.rect(rect).hint(gap_tolerance=gap)

        def reads():
            batch = store.range_query_batch([rect_a, rect_b], gap_tolerance=gap)
            return (
                payloads(store.execute(query(rect_a)).records),
                payloads(store.cursor(query(rect_a)).fetchall()),
                [round(d, 9) for d in store.knn(center, k).distances],
                [payloads(result.records) for result in batch.results],
            )

        def inside(rect):
            return sorted(i for i, p in enumerate(points) if rect.contains(p))

        nearest = sorted(
            float(np.hypot(x - center[0], y - center[1])) for x, y in points
        )[:k]
        brute_force = (
            inside(rect_a),
            inside(rect_a),
            [round(d, 9) for d in nearest],
            [inside(rect_a), inside(rect_b)],
        )
        # The first pass plans every rect, kNN's expansion boxes
        # included, and caches the plans; the patched pass only executes.
        assert reads() == brute_force
        misses = store.plan_cache.stats.misses

        def forbidden(self, runs):
            raise AssertionError(f"key column searched for {runs} at execution")

        monkeypatch.setattr(PageLayout, "bounds", forbidden)
        assert reads() == brute_force
        assert store.plan_cache.stats.misses == misses


class TestPlansFromAnotherLayout:
    """A plan resolved against a layout a flush has since replaced, or
    against none, is resolved against the executor's own layout when it
    runs: every execution path reads and returns exactly what a plan
    planned against that layout does."""

    GRID = [(x, y) for x in range(16) for y in range(16)]

    @staticmethod
    def _store(num_shards):
        curve = make_curve("onion", 16, 2)
        if num_shards == 1:
            store = SFCIndex(curve, page_capacity=4)
        else:
            store = ShardedSFCIndex(curve, num_shards=num_shards, page_capacity=4)
        grid = TestPlansFromAnotherLayout.GRID
        store.bulk_load(grid, payloads=range(len(grid)))
        store.flush()
        return store

    @staticmethod
    def _shrink(store):
        for point in TestPlansFromAnotherLayout.GRID[:64]:
            assert store.delete(point)

    @staticmethod
    def _grow(store):
        # The outer rings come first on the onion curve: these inserts
        # shift every later record, some of them into the rect.
        for i, point in enumerate(TestPlansFromAnotherLayout.GRID[:40]):
            store.insert(point, payload=f"new-{i}")

    @staticmethod
    def _layout_free(store, rect, policy):
        if isinstance(store, ShardedSFCIndex):
            return ShardedPlanner(store.curve, store.shards).plan(rect, policy)
        return Planner(store.curve).plan(rect, policy)

    @pytest.mark.parametrize("num_shards", [1, 3])
    @pytest.mark.parametrize("gap", [0, 2])
    @pytest.mark.parametrize(
        "change, rect, pages",
        [
            ("shrink", Rect((7, 7), (8, 8)), 48),
            ("grow", Rect((2, 2), (6, 6)), 74),
            ("layout_free", Rect((2, 2), (6, 6)), 64),
        ],
    )
    def test_reads_equal_a_plan_of_the_executors_layout(
        self, num_shards, gap, change, rect, pages
    ):
        store = self._store(num_shards)
        policy = ExecutionPolicy(gap_tolerance=gap)
        if change == "layout_free":
            other = self._layout_free(store, rect, policy)
        else:
            other = store.plan(rect, policy=policy)
            getattr(self, f"_{change}")(store)
        fresh = store.plan(rect, policy=policy)  # flushes after a change
        assert store.page_layout.num_pages == pages
        executor = store.executor

        def executed(plan):
            store.disk.reset_stats()
            result = executor.execute(plan)
            per_shard = getattr(result, "per_shard", None)
            return (
                result.records, result.seeks, result.sequential_reads,
                result.over_read, per_shard,
            )

        def streamed(plan):
            store.disk.reset_stats()
            stream = executor.stream(plan)
            records = [record for page in stream for record in page]
            return records, stream.seeks, stream.sequential_reads, stream.over_read

        def batched(plan):
            store.disk.reset_stats()
            batch = executor.execute_batch([plan])
            per_shard = getattr(batch, "per_shard", None)
            return batch.results[0].records, batch.total_seeks, per_shard

        for run in (executed, streamed, batched):
            assert run(other) == run(fresh), run.__name__
        records = executed(other)[0]
        assert records and all(rect.contains(r.point) for r in records)


class TestKeysBeyondInt64:
    """A z-order store of side 2**32 keys cells up to 2**64 - 1, past
    what an int64 key column holds, and plans runs ending there."""

    SIDE = 2**32
    TOP = SIDE - 1

    def test_keys_past_2_to_the_63(self):
        index = SFCIndex(make_curve("zorder", self.SIDE, 2), page_capacity=2)
        top = self.TOP
        for point in [(0, 0), (1, 1), (2**31, 5), (top - 1, top), (top, top)]:
            index.insert(point)
        index.flush()
        assert index.curve.index((top, top)) == 2**64 - 1
        cases = [
            (Rect((0, 0), (top, top)), 5, 1, 2),
            (Rect((2**31, 0), (top, top)), 3, 2, 1),
            (Rect((0, 0), (2**31 - 1, top)), 2, 1, 1),
        ]
        for rect, records, seeks, sequential in cases:
            index.disk.reset_stats()
            result = index.range_query(rect)
            assert len(result.records) == records, rect
            assert (result.seeks, result.sequential_reads) == (seeks, sequential), rect
        universe = Query.rect(Rect((0, 0), (top, top)))
        assert len(index.cursor(universe).fetchall()) == 5

    def test_runs_past_2_to_the_63_over_smaller_keys(self):
        """Keys 2**62 - 1 and 2**62 sit in an int64 column, apart by less
        than a float64 resolves there; the rect's runs start at 2**62 and
        end at 2**64 - 1, and must find exactly the one record."""
        index = SFCIndex(make_curve("zorder", self.SIDE, 2), page_capacity=2)
        inside = (2**31, 0)
        for point in [(0, 0), (2**31 - 1, 2**31 - 1), inside]:
            index.insert(point)
        rect = Rect(inside, (self.TOP, self.TOP))
        assert index.plan(rect).runs == ((2**62, 2**63 - 1), (3 * 2**62, 2**64 - 1))
        assert [r.point for r in index.range_query(rect).records] == [inside]
        assert [r.point for r in index.cursor(Query.rect(rect)).fetchall()] == [inside]

    @pytest.mark.parametrize("load", ["bulk", "one at a time"])
    def test_onion_keys_past_2_to_the_63_in_bulk_and_one_at_a_time(self, load):
        """The 2-D onion curve keys the centre of side 2**32 past 2**63,
        which the vectorized kernels refuse: a bulk load keys its points
        with the exact scalar kernel, as single inserts do, so both the
        universe and the rect around the centre find their records
        through an ``object`` key column."""
        index = SFCIndex(make_curve("onion", self.SIDE, 2), page_capacity=2)
        centre = 2**31 - 1
        points = [(0, 0), (centre, centre), (5, 7)]
        if load == "bulk":
            index.bulk_load(points)
        else:
            for point in points:
                index.insert(point)
        assert index.curve.index((centre, centre)) == 2**64 - 4
        universe = Rect((0, 0), (self.TOP, self.TOP))
        around = Rect((centre - 1, centre - 1), (centre + 1, centre + 1))
        for rect, found in [(universe, sorted(points)), (around, [(centre, centre)])]:
            assert sorted(r.point for r in index.range_query(rect).records) == found
            cursor = index.cursor(Query.rect(rect))
            assert sorted(r.point for r in cursor.fetchall()) == found
        assert index.page_layout.keys.dtype == object


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
