"""The ``SpatialStore`` protocol: one facade, two conforming stores.

Pins the unification the api redesign promises: both index classes are
instances of the shared base, the hoisted facade behaves identically on
both (point lookups included — the seek-accounting regression), plain
queries return the legacy result types byte-for-byte, and the recorder
and plan cache see streamed queries exactly like materialized ones.
"""

import numpy as np
import pytest

from repro.adaptive import WorkloadRecorder
from repro.api import ANY, Query, QueryResult, SpatialStore
from repro.curves import make_curve
from repro.engine.executor import RangeQueryResult
from repro.engine.scatter import ShardedRangeQueryResult
from repro.geometry import Rect
from repro.index import SFCIndex, ShardedSFCIndex

SIDE = 16


def _points(count=200, seed=3):
    rng = np.random.default_rng(seed)
    points = [tuple(map(int, p)) for p in rng.integers(0, SIDE, size=(count, 2))]
    return points, list(range(count))


def _pair(recorder_single=None, recorder_sharded=None, **kwargs):
    single = SFCIndex(
        make_curve("onion", SIDE, 2),
        page_capacity=8,
        recorder=recorder_single,
        **kwargs,
    )
    sharded = ShardedSFCIndex(
        make_curve("onion", SIDE, 2),
        num_shards=3,
        page_capacity=8,
        recorder=recorder_sharded,
        **kwargs,
    )
    points, payloads = _points()
    for store in (single, sharded):
        store.bulk_load(points, payloads)
        store.flush()
    return single, sharded


class TestProtocolConformance:
    def test_both_stores_implement_spatial_store(self):
        single, sharded = _pair()
        assert isinstance(single, SpatialStore)
        assert isinstance(sharded, SpatialStore)

    def test_the_base_is_abstract(self):
        with pytest.raises(TypeError):
            SpatialStore()

    def test_facade_surface_is_shared(self):
        for name in (
            "insert",
            "delete",
            "bulk_load",
            "point_query",
            "flush",
            "plan",
            "explain",
            "execute",
            "cursor",
            "knn",
            "range_query",
            "range_query_batch",
            "migrate_to",
        ):
            single_attr = getattr(SFCIndex, name)
            sharded_attr = getattr(ShardedSFCIndex, name)
            assert single_attr is getattr(SpatialStore, name), name
            assert sharded_attr is getattr(SpatialStore, name), name


class TestPointQuerySymmetry:
    def test_point_lookups_report_identical_seek_accounting(self):
        """Regression: point_query is one in-memory implementation —
        single and sharded stores return the same records and charge
        exactly the same (zero) disk I/O."""
        single, sharded = _pair()
        points, _ = _points()
        single.disk.reset_stats()
        sharded.disk.reset_stats()
        for point in points[:40] + [(0, 0), (SIDE - 1, SIDE - 1)]:
            a = single.point_query(point)
            b = sharded.point_query(point)
            assert a == b
        assert single.disk.stats.pages_read == 0
        assert sharded.disk.stats.pages_read == 0
        assert single.disk.stats.seeks == sharded.disk.stats.seeks == 0


class TestLegacyFacades:
    def test_plain_execute_returns_native_result_types(self):
        single, sharded = _pair()
        rect = Rect((2, 2), (11, 13))
        a = single.execute(Query.rect(rect))
        b = sharded.execute(Query.rect(rect))
        assert type(a) is RangeQueryResult
        assert type(b) is ShardedRangeQueryResult
        assert b.per_shard  # sharded attribution survives the front door
        assert a.records == b.records

    def test_range_query_facade_is_byte_identical_to_execute(self):
        single, _ = _pair()
        rect = Rect((1, 0), (9, 9))
        single.disk.reset_stats()
        via_facade = single.range_query(rect, gap_tolerance=2)
        single.disk.reset_stats()
        via_query = single.execute(Query.rect(rect).hint(gap_tolerance=2))
        assert via_facade.records == via_query.records
        assert via_facade.seeks == via_query.seeks
        assert via_facade.pages_read == via_query.pages_read
        assert via_facade.over_read == via_query.over_read

    def test_execute_accepts_a_bare_rect(self):
        single, _ = _pair()
        rect = Rect((0, 0), (5, 5))
        assert single.execute(rect).records == single.range_query(rect).records

    def test_rich_execute_returns_query_result(self):
        _, sharded = _pair()
        rect = Rect((0, 0), (12, 12))
        result = sharded.execute(
            Query.rect(rect).where(lambda r: r.payload % 2 == 0).limit(7)
        )
        assert isinstance(result, QueryResult)
        assert len(result) == 7
        assert all(r.payload % 2 == 0 for r in result.rows)
        assert result.truncated

    def test_mutations_through_the_shared_write_path(self):
        single, sharded = _pair()
        for store in (single, sharded):
            before = len(store)
            store.insert((3, 3), payload="new")
            assert len(store) == before + 1
            assert any(r.payload == "new" for r in store.point_query((3, 3)))
            assert store.delete((3, 3), payload="new")
            assert len(store) == before
            assert not store.delete((3, 3), payload="new")


class TestDeletePayloadMatching:
    """Regression: ``payload=None`` used to double as the match-any
    marker, so a record stored *with* ``payload=None`` could never be
    targeted specifically.  The :data:`repro.ANY` sentinel is now the
    default; ``delete(point)`` keeps its match-any meaning and
    ``delete(point, None)`` matches exactly the None-payload records.
    """

    def _stores(self):
        curve = make_curve("onion", SIDE, 2)
        return (
            SFCIndex(curve, page_capacity=8),
            ShardedSFCIndex(curve, num_shards=4, page_capacity=8),
        )

    def test_payload_none_records_are_targetable(self):
        for store in self._stores():
            store.insert((9, 9), None)
            store.insert((9, 9), "keep")
            assert store.delete((9, 9), None)
            payloads = [r.payload for r in store.point_query((9, 9))]
            assert payloads == ["keep"], payloads

    def test_delete_with_none_does_not_match_other_payloads(self):
        for store in self._stores():
            store.insert((9, 9), "only")
            assert not store.delete((9, 9), None)
            assert [r.payload for r in store.point_query((9, 9))] == ["only"]

    def test_bare_delete_still_matches_any(self):
        for store in self._stores():
            store.insert((9, 9), "a")
            store.insert((9, 9), None)
            assert store.delete((9, 9))
            assert store.delete((9, 9))
            assert not store.delete((9, 9))
            assert len(store) == 0

    def test_explicit_any_sentinel_matches_any(self):
        for store in self._stores():
            store.insert((9, 9), None)
            assert store.delete((9, 9), ANY)
            assert store.point_query((9, 9)) == []

    def test_any_repr_reads_like_the_export(self):
        assert repr(ANY) == "ANY"


class TestTelemetryAndCaching:
    def test_cursor_reports_to_the_recorder_like_execute(self):
        recorder_a, recorder_b = WorkloadRecorder(), WorkloadRecorder()
        single, _ = _pair(recorder_single=recorder_a)
        other = SFCIndex(
            make_curve("onion", SIDE, 2), page_capacity=8, recorder=recorder_b
        )
        points, payloads = _points()
        other.bulk_load(points, payloads)
        other.flush()
        rect = Rect((2, 2), (13, 13))

        single.range_query(rect)
        other.cursor(Query.rect(rect)).fetchall()

        assert recorder_a.executed_events == recorder_b.executed_events == 1
        assert recorder_a.histogram() == recorder_b.histogram() == {(12, 12): 1.0}

    def test_early_closed_cursor_records_partial_io(self):
        recorder = WorkloadRecorder()
        store = SFCIndex(
            make_curve("onion", SIDE, 2), page_capacity=8, recorder=recorder
        )
        points, payloads = _points()
        store.bulk_load(points, payloads)
        store.flush()
        full = store.range_query(Rect((0, 0), (SIDE - 1, SIDE - 1)))
        before = recorder.executed_events
        cursor = store.cursor(
            Query.rect(Rect((0, 0), (SIDE - 1, SIDE - 1))).limit(3)
        )
        cursor.fetchall()
        assert recorder.executed_events == before + 1
        assert 0 < cursor.stats.pages_read < full.pages_read

    def test_cursor_planning_hits_the_epoch_keyed_cache(self):
        single, sharded = _pair()
        for store in (single, sharded):
            rect = Rect((4, 4), (10, 12))
            store.cursor(Query.rect(rect)).fetchall()
            hits_before = store.plan_cache.stats.hits
            store.cursor(Query.rect(rect)).fetchall()
            assert store.plan_cache.stats.hits > hits_before
            # a write bumps the epoch at the next flush: stale plans die
            store.insert((0, 0))
            store.cursor(Query.rect(rect)).fetchall()
            assert store.epoch > 1

    def test_union_cursor_plans_each_member_through_the_cache(self):
        single, _ = _pair()
        rects = [Rect((0, 0), (4, 4)), Rect((8, 8), (12, 12))]
        single.execute(Query.union_of(rects))
        hits_before = single.plan_cache.stats.hits
        single.cursor(Query.union_of(rects)).fetchall()
        assert single.plan_cache.stats.hits >= hits_before + 2
