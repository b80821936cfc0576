"""Concurrency hammer: the store serving layer under mixed traffic.

Readers plan and execute range queries (point and batched) while
writers insert and flush, all from one :class:`ThreadPoolExecutor`.
The race-checked hammer runs on both stores — they share one lock
model, so the single index is held to the same discipline.
The contract under test:

* no exceptions, ever — the lock-protected write paths and the
  thread-safe :class:`PlanCache` keep internal state coherent;
* **no stale-layout reads**: every query admitted after
  ``_invalidate_layout`` + reflush sees the new layout — its result
  reflects a dataset state at least as new as the last flush that
  completed before the query started (datasets only grow here, so
  "reflects" is a record-count lower bound), and never more than the
  final state;
* the plan cache never serves a plan across an epoch boundary (epochs
  key the cache), so post-flush queries re-plan against the new layout.
"""

import sys
import threading
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from repro.api import Query
from repro.curves import make_curve
from repro.engine import PlanCache, Planner
from repro.geometry import Rect
from repro.index import SFCIndex, ShardedSFCIndex

from racecheck import LockOrderTracker, watch_fields

SIDE = 16
RECT = Rect((0, 0), (SIDE - 1, SIDE - 1))  # whole-universe query: count == len


def _sharded(points, num_shards=4):
    index = ShardedSFCIndex(
        make_curve("onion", SIDE, 2),
        num_shards=num_shards,
        page_capacity=8,
    )
    index.bulk_load(points)
    index.flush()
    return index


class TestScatterGatherUnderThreads:
    def test_mixed_plan_execute_insert_flush_hammer(self):
        rng = np.random.default_rng(31)
        base = [tuple(map(int, p)) for p in rng.integers(0, SIDE, size=(120, 2))]
        index = _sharded(base)
        extra = [tuple(map(int, p)) for p in rng.integers(0, SIDE, size=(40, 2))]
        errors = []
        flushed_floor = [len(base)]  # records known flushed; only grows
        lock = threading.Lock()

        def writer():
            try:
                for point in extra:
                    index.insert(point, payload="w")
                    index.flush()
                    with lock:
                        flushed_floor[0] += 1
            except Exception as exc:  # pragma: no cover - the assertion below
                errors.append(exc)

        def reader(seed):
            try:
                rng = np.random.default_rng(seed)
                for _ in range(30):
                    floor_before = flushed_floor[0]
                    if rng.integers(0, 2):
                        result = index.range_query(RECT)
                    else:
                        result = index.range_query_batch([RECT]).results[0]
                    count = len(result.records)
                    # No stale-layout read: at least every record flushed
                    # before the query started, never more than the total.
                    assert floor_before <= count <= len(base) + len(extra), (
                        f"saw {count}, floor was {floor_before}"
                    )
            except Exception as exc:  # pragma: no cover
                errors.append(exc)

        def planner(seed):
            try:
                rng = np.random.default_rng(seed)
                for _ in range(40):
                    lo = rng.integers(0, SIDE, size=2)
                    hi = np.minimum(lo + rng.integers(0, 8, size=2), SIDE - 1)
                    splan = index.plan(Rect(tuple(lo), tuple(hi)))
                    assert splan.shards_touched >= 1
                    index.explain(Rect(tuple(lo), tuple(hi)))
            except Exception as exc:  # pragma: no cover
                errors.append(exc)

        with ThreadPoolExecutor(max_workers=8) as pool:
            futures = [pool.submit(writer)]
            futures += [pool.submit(reader, s) for s in range(3)]
            futures += [pool.submit(planner, 100 + s) for s in range(3)]
            for future in futures:
                future.result()
        assert not errors, errors[0]

        # Quiesced: the final state matches the unsharded ground truth.
        final = index.range_query(RECT)
        single = SFCIndex(index.curve, page_capacity=8)
        single.bulk_load(base)
        for point in extra:
            single.insert(point, payload="w")
        single.flush()
        truth = single.range_query(RECT)
        assert len(final.records) == len(truth.records) == len(base) + len(extra)
        assert sorted(r.point for r in final.records) == sorted(
            r.point for r in truth.records
        )

    def test_no_plan_served_across_epochs(self):
        """A plan cached before a flush is keyed to the old epoch."""
        rng = np.random.default_rng(5)
        index = _sharded(
            [tuple(map(int, p)) for p in rng.integers(0, SIDE, size=(80, 2))]
        )
        rect = Rect((2, 2), (9, 9))
        before = index.plan(rect)
        index.insert((2, 2), payload="new")
        index.flush()
        after = index.plan(rect)
        assert after is not before
        result = index.range_query(rect)
        assert any(r.payload == "new" for r in result.records)

    def test_concurrent_batches_return_consistent_results(self):
        rng = np.random.default_rng(17)
        points = [tuple(map(int, p)) for p in rng.integers(0, SIDE, size=(150, 2))]
        index = _sharded(points, num_shards=8)
        rects = []
        for _ in range(15):
            lo = rng.integers(0, SIDE, size=2)
            hi = np.minimum(lo + rng.integers(0, 9, size=2), SIDE - 1)
            rects.append(Rect(tuple(lo), tuple(hi)))
        expected = [sorted(r.point for r in res.records)
                    for res in index.range_query_batch(rects).results]

        def run_batch(_):
            batch = index.range_query_batch(rects)
            return [sorted(r.point for r in res.records) for res in batch.results]

        with ThreadPoolExecutor(max_workers=6) as pool:
            for got in pool.map(run_batch, range(12)):
                assert got == expected


#: Every field the store mutex guards (``guarded-by: _mutex`` in
#: SpatialStore and ShardedSFCIndex).
MUTEX_GUARDED = (
    "_curve",
    "_shards",
    "_planner",
    "_tree",
    "_count",
    "_layout",
    "_executor",
    "_epoch",
    "_version",
)


class TestRaceCheckedHammer:
    """The front-door hammer under the runtime race detector.

    Streaming cursors and kNN searches run concurrently with writers
    and online ``migrate_to`` cutovers while every store lock is
    wrapped in a :class:`~racecheck.LockOrderTracker` and every
    mutex-guarded field is watched (the sharded store here, the single
    store in :class:`TestRaceCheckedHammerSingle`).  Afterwards the
    tracker must show: zero unguarded field accesses, zero lock-order
    violations, and no acquisition edge the static analysis did not
    predict (the only legal edge is ``_mutex -> _io_lock``, taken by
    ``_install_layout`` when clearing the buffer pool).
    """

    #: The one cross-lock edge `repro lint`'s graph declares.
    ALLOWED_EDGES = {("_mutex", "_io_lock")}
    #: Which store the hammer runs on.
    STORE = "sharded"

    def _tracked_index(self, points, tracker):
        curve = make_curve("onion", SIDE, 2)
        if self.STORE == "sharded":
            index = ShardedSFCIndex(
                curve, num_shards=4, page_capacity=8, buffer_pages=8
            )
        else:
            index = SFCIndex(curve, page_capacity=8, buffer_pages=8)
        # Instrument BEFORE the first flush: executors capture the
        # io-lock reference at construction, and only a wrapped lock at
        # that moment is observed by the tracker.
        tracker.instrument(index, ["_mutex", "_io_lock"])
        watch_fields(index, tracker, {name: "_mutex" for name in MUTEX_GUARDED})
        index.bulk_load(points)
        index.flush()
        return index

    def test_cursors_and_knn_race_migration(self):
        rng = np.random.default_rng(77)
        base = [tuple(map(int, p)) for p in rng.integers(0, SIDE, size=(150, 2))]
        tracker = LockOrderTracker()
        index = self._tracked_index(base, tracker)
        extra = [tuple(map(int, p)) for p in rng.integers(0, SIDE, size=(30, 2))]
        curves = [make_curve("hilbert", SIDE, 2), make_curve("onion", SIDE, 2)]
        errors = []
        total = len(base) + len(extra)

        def writer():
            try:
                for point in extra:
                    index.insert(point, payload="w")
                    index.flush()
            except Exception as exc:  # pragma: no cover
                errors.append(exc)

        def migrator():
            try:
                for target in curves * 2:
                    report = index.migrate_to(target)
                    assert report is not None
            except Exception as exc:  # pragma: no cover
                errors.append(exc)

        def cursor_reader(seed):
            try:
                rng = np.random.default_rng(seed)
                for i in range(25):
                    query = Query.rect(RECT)
                    if i % 3 == 1:
                        query = query.limit(int(rng.integers(1, 20)))
                    elif i % 3 == 2:
                        query = query.where(lambda r: r.point[0] % 2 == 0)
                    with index.cursor(query) as cursor:
                        rows = cursor.fetchall()
                    assert len(rows) <= total
            except Exception as exc:  # pragma: no cover
                errors.append(exc)

        def knn_reader(seed):
            try:
                rng = np.random.default_rng(seed)
                for _ in range(15):
                    point = tuple(int(c) for c in rng.integers(0, SIDE, size=2))
                    k = int(rng.integers(1, 6))
                    result = index.knn(point, k)
                    assert 1 <= len(result.neighbors) <= k
            except Exception as exc:  # pragma: no cover
                errors.append(exc)

        # A short switch interval forces far more thread interleavings
        # per run than the interpreter's 5 ms default.
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            with ThreadPoolExecutor(max_workers=8) as pool:
                futures = [pool.submit(writer), pool.submit(migrator)]
                futures += [pool.submit(cursor_reader, 200 + s) for s in range(3)]
                futures += [pool.submit(knn_reader, 300 + s) for s in range(3)]
                for future in futures:
                    future.result(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not errors, errors[0]

        # The hammer actually hammered: both locks saw real traffic.
        counts = tracker.acquire_counts()
        assert counts.get("_mutex", 0) > 50
        assert counts.get("_io_lock", 0) > 50
        # And it stayed disciplined: no unguarded access to watched
        # fields, no order inversion, no edge outside the static graph.
        tracker.assert_clean(allowed_edges=self.ALLOWED_EDGES)

        # Quiesced correctness: every record survived the migrations.
        final = index.range_query(RECT)
        assert len(final.records) == total

    def test_detector_catches_a_seeded_unguarded_write(self):
        """The harness itself is tested: bypassing the mutex on a
        watched field must surface as a FieldViolation."""
        tracker = LockOrderTracker()
        index = self._tracked_index([(1, 2), (3, 4), (5, 6)], tracker)
        index._count += 0  # a read+write outside any lock
        violations = tracker.field_violations()
        assert violations, "seeded unguarded access went undetected"
        assert any(v.field == "_count" for v in violations)
        with pytest.raises(AssertionError):
            tracker.assert_clean(allowed_edges=self.ALLOWED_EDGES)

    def test_detector_catches_a_seeded_order_inversion(self):
        """Acquiring the mutex while holding the io-lock is the classic
        inversion; the tracker must flag it against the declared order."""
        tracker = LockOrderTracker()
        index = self._tracked_index([(1, 1), (2, 2)], tracker)
        with index._io_lock:
            with index._mutex:
                pass
        violations = tracker.order_violations()
        assert any(v.kind == "declared-order" for v in violations)


class TestRaceCheckedHammerSingle(TestRaceCheckedHammer):
    """The same hammer and seeded checks on the single-node store, which
    shares the sharded store's lock model and guarded fields."""

    STORE = "single"


class TestPlanCacheUnderThreads:
    def test_hammer_get_put_invalidate(self):
        cache = PlanCache(capacity=32)
        curve = make_curve("hilbert", SIDE, 2)
        planner = Planner(curve)
        # 64 *distinct* rects: (x, height) pairs, so keys never collide.
        rects = [
            Rect((i % SIDE, 0), (i % SIDE, i // SIDE)) for i in range(64)
        ]
        plans = [planner.plan(rect) for rect in rects]
        errors = []

        def worker(seed):
            try:
                rng = np.random.default_rng(seed)
                for _ in range(400):
                    i = int(rng.integers(0, len(rects)))
                    op = rng.integers(0, 10)
                    if op == 0:
                        cache.invalidate()
                    elif op < 6:
                        got = cache.get((curve, rects[i], plans[i].policy))
                        assert got is None or got is plans[i]
                    else:
                        cache.put((curve, rects[i], plans[i].policy), plans[i])
                    assert len(cache) <= cache.capacity
            except Exception as exc:  # pragma: no cover
                errors.append(exc)

        with ThreadPoolExecutor(max_workers=8) as pool:
            for future in [pool.submit(worker, s) for s in range(8)]:
                future.result()
        assert not errors, errors[0]
        stats = cache.stats
        assert stats.lookups == stats.hits + stats.misses
        assert 0.0 <= stats.hit_rate <= 1.0
