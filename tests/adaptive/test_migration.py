"""OnlineMigrator: the differential cutover guarantee.

The acceptance bar: after a cutover on a drifting trace, the migrated
index must be *observationally identical* to an index freshly
bulk-loaded on the target curve — records, seeks, pages and over-read,
for every probe query, single and sharded, including queries issued
mid-migration (which must keep serving the old layout).
"""

import threading

import numpy as np
import pytest

from repro.adaptive import OnlineMigrator
from repro.curves import make_curve
from repro.errors import InvalidQueryError
from repro.geometry import Rect
from repro.index import SFCIndex, ShardedSFCIndex

SIDE = 16


def distinct_points(count, seed=11, side=SIDE):
    """Distinct cells (stable per-key record order across load orders)."""
    rng = np.random.default_rng(seed)
    flat = rng.permutation(side * side)[:count]
    return [(int(k // side), int(k % side)) for k in flat]


def probe_rects(seed=13, count=25, side=SIDE):
    rng = np.random.default_rng(seed)
    a = rng.integers(0, side, size=(count, 2))
    b = rng.integers(0, side, size=(count, 2))
    return [
        Rect(tuple(map(int, np.minimum(x, y))), tuple(map(int, np.maximum(x, y))))
        for x, y in zip(a, b)
    ]


def build(kind, curve_name, points, page_capacity=4, **kwargs):
    curve = make_curve(curve_name, SIDE, 2)
    if kind == "sharded":
        index = ShardedSFCIndex(curve, page_capacity=page_capacity, **kwargs)
    else:
        index = SFCIndex(curve, page_capacity=page_capacity, **kwargs)
    index.bulk_load(points, payloads=range(len(points)))
    index.flush()
    return index


def assert_identical(migrated, fresh, rects, gap_tolerance=0):
    """Same records, seeks, pages and over-read on every probe query."""
    for rect in rects:
        a = migrated.range_query(rect, gap_tolerance=gap_tolerance)
        b = fresh.range_query(rect, gap_tolerance=gap_tolerance)
        assert a.records == b.records
        assert a.seeks == b.seeks
        assert a.pages_read == b.pages_read
        assert a.over_read == b.over_read
    batch_a = migrated.range_query_batch(rects, gap_tolerance=gap_tolerance)
    batch_b = fresh.range_query_batch(rects, gap_tolerance=gap_tolerance)
    assert batch_a.total_seeks == batch_b.total_seeks
    assert batch_a.total_pages_read == batch_b.total_pages_read
    assert batch_a.total_records == batch_b.total_records


class TestDifferentialCutover:
    """Migrated index ≡ fresh bulk load on the target curve."""

    @pytest.mark.parametrize("kind", ["single", "sharded"])
    @pytest.mark.parametrize(
        "source,target",
        [("rowmajor", "onion"), ("onion", "hilbert"), ("hilbert", "rowmajor")],
    )
    def test_records_seeks_pages_identical(self, kind, source, target):
        points = distinct_points(180)
        index = build(kind, source, points)
        # A drifting trace runs before the migration (plans get cached,
        # the executor serves queries) — cutover must retire all of it.
        for rect in probe_rects(seed=7, count=10):
            index.range_query(rect)
        report = index.migrate_to(make_curve(target, SIDE, 2))
        assert report.migrated
        assert report.records == len(points)
        assert report.epoch_after == report.epoch_before + 1
        fresh = build(kind, target, points)
        assert_identical(index, fresh, probe_rects())

    @pytest.mark.parametrize("kind", ["single", "sharded"])
    @pytest.mark.parametrize("page_capacity", [1, 4, 16])
    def test_identical_across_page_capacities(self, kind, page_capacity):
        points = distinct_points(120, seed=5)
        index = build(kind, "rowmajor", points, page_capacity=page_capacity)
        assert index.migrate_to(make_curve("onion", SIDE, 2)).migrated
        fresh = build(kind, "onion", points, page_capacity=page_capacity)
        assert_identical(index, fresh, probe_rects(seed=3))

    @pytest.mark.parametrize("gap", [1, 8])
    def test_identical_under_gap_tolerance(self, gap):
        points = distinct_points(140, seed=9)
        index = build("single", "rowmajor", points)
        index.migrate_to(make_curve("onion", SIDE, 2))
        fresh = build("single", "onion", points)
        assert_identical(index, fresh, probe_rects(seed=21), gap_tolerance=gap)

    def test_sharded_migration_rebalances_routing(self):
        points = distinct_points(160, seed=15)
        index = build("sharded", "rowmajor", points, num_shards=4)
        index.migrate_to(make_curve("onion", SIDE, 2))
        # Every record re-routed through the shard map under its new key.
        assert sum(index.shard_loads) == len(points) == len(index)
        for point in points[:20]:
            assert len(index.point_query(point)) == 1

    def test_migration_after_rebalance(self):
        points = distinct_points(150, seed=19)
        index = build("sharded", "rowmajor", points, num_shards=4)
        index.rebalance()
        index.migrate_to(make_curve("onion", SIDE, 2))
        fresh = build("sharded", "onion", points, num_shards=4)
        assert_identical(index, fresh, probe_rects(seed=33))


class TestMidMigrationServing:
    """Queries issued during re-keying serve the *old* layout, exactly."""

    @pytest.mark.parametrize("kind", ["single", "sharded"])
    def test_queries_between_batches_serve_old_curve(self, kind):
        points = distinct_points(200, seed=23)
        rects = probe_rects(seed=41, count=8)
        index = build(kind, "rowmajor", points)
        old_baseline = build(kind, "rowmajor", points)
        expected = [old_baseline.range_query(r) for r in rects]
        seen_batches = []

        def on_batch(done, total):
            seen_batches.append((done, total))
            for rect, want in zip(rects, expected):
                got = index.range_query(rect)
                assert got.records == want.records
                assert got.seeks == want.seeks
                assert got.pages_read == want.pages_read

        migrator = OnlineMigrator(batch_size=32, on_batch=on_batch)
        report = migrator.migrate(index, make_curve("onion", SIDE, 2))
        assert report.migrated
        assert len(seen_batches) == report.batches >= 4  # genuinely bounded
        assert seen_batches[-1] == (len(points), len(points))
        fresh = build(kind, "onion", points)
        assert_identical(index, fresh, rects)

    @pytest.mark.parametrize("buffer_pages", [0, 256])
    def test_concurrent_readers_always_get_correct_records(self, buffer_pages):
        """Threads hammering range_query across the cutover never see junk.

        With ``buffer_pages`` the cutover's pool invalidation must also
        serialize with in-flight pool reads (the shared I/O lock rule).
        """
        points = distinct_points(200, seed=27)
        index = build(
            "sharded", "rowmajor", points, num_shards=4,
            **({"buffer_pages": buffer_pages} if buffer_pages else {}),
        )
        rect = Rect((2, 2), (11, 11))
        want = sorted(
            (r.point, r.payload)
            for r in build("sharded", "rowmajor", points).range_query(rect).records
        )
        stop = threading.Event()
        failures = []

        def reader():
            while not stop.is_set():
                got = sorted(
                    (r.point, r.payload) for r in index.range_query(rect).records
                )
                if got != want:
                    failures.append(got)
                    return

        threads = [threading.Thread(target=reader) for _ in range(4)]
        for t in threads:
            t.start()
        try:
            for _ in range(3):
                index.migrate_to(make_curve("onion", SIDE, 2), batch_size=16)
                index.migrate_to(make_curve("rowmajor", SIDE, 2), batch_size=16)
        finally:
            stop.set()
            for t in threads:
                t.join()
        assert not failures


class TestWriteContention:
    """Writes racing the re-key pass force a retry, never a loss."""

    @pytest.mark.parametrize("kind", ["single", "sharded"])
    def test_insert_mid_migration_retries_and_survives(self, kind):
        points = distinct_points(100, seed=31)
        index = build(kind, "rowmajor", points)
        inserted = []

        def on_batch(done, total):
            # One racing write on the first attempt only.
            if not inserted:
                index.insert((0, 0), payload="late")
                inserted.append(True)

        migrator = OnlineMigrator(batch_size=64, on_batch=on_batch)
        report = migrator.migrate(index, make_curve("onion", SIDE, 2))
        assert report.migrated
        assert report.attempts > 1
        assert report.records == len(points) + 1
        assert any(
            r.payload == "late" for r in index.range_query(Rect((0, 0), (0, 0))).records
        )

    def test_concurrent_writers_never_key_under_a_stale_curve(self):
        """Inserts racing cutovers must land under the post-cutover curve.

        The regression: a key computed under the outgoing curve outside
        the lock, appended after the cutover swapped the curve, would be
        counted by ``len`` but invisible to every query — silent loss.
        """
        points = distinct_points(120, seed=41)
        index = build("sharded", "rowmajor", points, num_shards=4)
        errors = []
        inserted = []

        def writer(tid):
            try:
                for i in range(40):
                    point = (tid, i % SIDE)
                    index.insert(point, payload=f"w{tid}-{i}")
                    inserted.append((point, f"w{tid}-{i}"))
            except Exception as exc:  # pragma: no cover - diagnostic
                errors.append(exc)

        threads = [threading.Thread(target=writer, args=(t,)) for t in range(3)]
        for t in threads:
            t.start()
        for _ in range(4):
            index.migrate_to(make_curve("onion", SIDE, 2), batch_size=16)
            index.migrate_to(make_curve("rowmajor", SIDE, 2), batch_size=16)
        for t in threads:
            t.join()
        assert not errors
        assert len(index) == len(points) + len(inserted)
        for point, payload in inserted:
            assert any(
                r.payload == payload for r in index.point_query(point)
            ), f"record {payload} at {point} lost"
        rect = Rect((0, 0), (SIDE - 1, SIDE - 1))
        assert len(index.range_query(rect).records) == len(index)

    def test_sustained_contention_falls_back_to_locked_pass(self):
        points = distinct_points(80, seed=37)
        index = build("single", "rowmajor", points)
        state = {"i": 0}

        def on_batch(done, total):
            # Dirty the version on every optimistic pass; the final
            # lock-held pass (a no-op lock for the single index, but the
            # snapshot/re-key/cutover run back-to-back with no hook in
            # between able to observe a half-installed state) still lands.
            state["i"] += 1
            index.insert((state["i"] % 16, 0), payload=f"w{state['i']}")

        migrator = OnlineMigrator(batch_size=1000, max_attempts=3, on_batch=on_batch)
        report = migrator.migrate(index, make_curve("onion", SIDE, 2))
        assert report.migrated
        assert report.attempts == 3


class TestMigrationGuards:
    def test_same_curve_is_a_noop(self):
        index = build("single", "onion", distinct_points(40))
        report = index.migrate_to(make_curve("onion", SIDE, 2))
        assert not report.migrated
        assert report.records == 0
        assert "skipped" in report.render()

    def test_universe_mismatch_rejected(self):
        index = build("single", "onion", distinct_points(40))
        with pytest.raises(InvalidQueryError):
            index.migrate_to(make_curve("onion", 8, 2))
        with pytest.raises(InvalidQueryError):
            index.migrate_to(make_curve("onion", SIDE, 3))

    def test_keys_past_int64_migrate_exactly(self):
        """At side 2**32 the vectorized kernels refuse the universe; the
        re-key uses the exact scalar kernel, so the migrated store finds
        every record under its new curve."""
        side, centre = 2**32, 2**31 - 1
        index = SFCIndex(make_curve("rowmajor", side, 2), page_capacity=2)
        points = [(0, 0), (centre, centre), (side - 1, side - 1), (5, 7)]
        for point in points:
            index.insert(point)
        report = index.migrate_to(make_curve("onion", side, 2))
        assert (report.migrated, report.records) == (True, 4)
        universe = Rect((0, 0), (side - 1, side - 1))
        assert sorted(r.point for r in index.range_query(universe).records) == sorted(points)
        around = Rect((centre - 1, centre - 1), (centre + 1, centre + 1))
        assert [r.point for r in index.range_query(around).records] == [(centre, centre)]

    def test_empty_index_migrates(self):
        index = SFCIndex(make_curve("rowmajor", SIDE, 2), page_capacity=4)
        report = index.migrate_to(make_curve("onion", SIDE, 2))
        assert report.migrated
        assert report.records == 0
        assert index.range_query(Rect((0, 0), (3, 3))).records == []

    def test_invalid_parameters(self):
        with pytest.raises(InvalidQueryError):
            OnlineMigrator(batch_size=0)
        with pytest.raises(InvalidQueryError):
            OnlineMigrator(max_attempts=0)

    def test_report_render_mentions_curves(self):
        index = build("single", "rowmajor", distinct_points(30))
        report = index.migrate_to(make_curve("onion", SIDE, 2))
        text = report.render()
        assert "rowmajor" in text.lower() or "RowMajor" in text
        assert "onion" in text.lower() or "Onion" in text
