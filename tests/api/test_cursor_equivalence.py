"""Differential proof: streaming ``Cursor`` ≡ materialized execution.

The acceptance bar for the front door: a fully drained cursor must
charge *exactly* the records, seeks, pages and over-read of the legacy
materialized path — across curves, dimensions, shard counts 1–4, gap
policies, multi-rect unions, predicates and limits — while holding at
most one page of records at a time.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.api import Query
from repro.curves import make_curve
from repro.geometry import Rect
from repro.index import SFCIndex, ShardedSFCIndex

CURVE_SPECS = [("onion", 2), ("hilbert", 2), ("zorder", 2), ("onion", 3)]
SIDE = {2: 16, 3: 8}
PAGE_CAPACITY = 8

#: Built stores are immutable after flush, so they are shared across
#: hypothesis examples (stats mutate, but equivalence is per-query).
_STORES = {}


def _grid_points(side, dim):
    """A deterministic, payload-carrying ~60% sample of the grid."""
    points, payloads = [], []
    total = side**dim
    for key in range(total):
        if key % 5 == 2:
            continue  # punch holes so pages span irregular key gaps
        cell = []
        rest = key
        for _ in range(dim):
            cell.append(rest % side)
            rest //= side
        points.append(tuple(cell))
        payloads.append(key)
    return points, payloads


def _store(name, dim, shards):
    spec = (name, dim, shards)
    store = _STORES.get(spec)
    if store is None:
        side = SIDE[dim]
        curve = make_curve(name, side, dim)
        if shards == 1:
            store = SFCIndex(curve, page_capacity=PAGE_CAPACITY)
        else:
            store = ShardedSFCIndex(
                curve, num_shards=shards, page_capacity=PAGE_CAPACITY
            )
        store.bulk_load(*_grid_points(side, dim))
        store.flush()
        _STORES[spec] = store
    return store


@st.composite
def scenarios(draw):
    name, dim = draw(st.sampled_from(CURVE_SPECS))
    side = SIDE[dim]
    shards = draw(st.integers(min_value=1, max_value=4))
    rects = []
    for _ in range(draw(st.integers(min_value=1, max_value=2))):
        lo = tuple(draw(st.integers(0, side - 1)) for _ in range(dim))
        hi = tuple(min(side - 1, l + draw(st.integers(0, side // 2))) for l in lo)
        rects.append(Rect(lo, hi))
    gap = draw(st.sampled_from([0, 0, 3]))
    limit = draw(st.one_of(st.none(), st.integers(min_value=0, max_value=40)))
    with_predicate = draw(st.booleans())
    return name, dim, shards, rects, gap, limit, with_predicate


@given(scenarios())
@settings(max_examples=60, deadline=None)
def test_cursor_streaming_equals_materialized(scenario):
    name, dim, shards, rects, gap, limit, with_predicate = scenario
    store = _store(name, dim, shards)
    plain = Query.union_of(rects).hint(gap_tolerance=gap)
    store.disk.reset_stats()  # park the head: seek accounting is stateful
    baseline = store.execute(plain)  # legacy materialized path

    query = plain
    predicate = (lambda record: record.point[0] % 2 == 0) if with_predicate else None
    if predicate is not None:
        query = query.where(predicate)
    if limit is not None:
        query = query.limit(limit)

    store.disk.reset_stats()
    cursor = store.cursor(query)
    rows = cursor.fetchall()
    stats = cursor.stats

    expected = [
        record
        for record in baseline.records
        if predicate is None or predicate(record)
    ]
    if limit is not None:
        expected = expected[:limit]
    assert rows == expected

    if limit is None:
        # Full drain: cost-identical to the materialized execution.
        assert stats.seeks == baseline.seeks
        assert stats.pages_read == baseline.pages_read
        assert stats.over_read == baseline.over_read
        assert stats.records_scanned == len(baseline.records)
    else:
        # Early exit may only save I/O, never add it.
        assert stats.seeks <= baseline.seeks
        assert stats.pages_read <= baseline.pages_read
    assert stats.peak_page_records <= PAGE_CAPACITY


@given(scenarios())
@settings(max_examples=30, deadline=None)
def test_union_execution_matches_oracle_and_single_index(scenario):
    """Plain unions dedupe overlaps and stay shard-transparent."""
    name, dim, shards, rects, gap, _, _ = scenario
    store = _store(name, dim, shards)
    single = _store(name, dim, 1)
    side = SIDE[dim]

    store.disk.reset_stats()
    result = store.execute(Query.union_of(rects).hint(gap_tolerance=gap))
    whole = Rect((0,) * dim, (side - 1,) * dim)
    oracle = [
        record
        for record in single.range_query(whole).records
        if any(rect.contains(record.point) for rect in rects)
    ]
    assert result.records == oracle  # key order, each record exactly once

    single.disk.reset_stats()
    baseline = single.execute(Query.union_of(rects).hint(gap_tolerance=gap))
    assert result.seeks == baseline.seeks
    assert result.pages_read == baseline.pages_read
    assert result.over_read == baseline.over_read


@pytest.mark.parametrize("shards", [1, 2, 4])
def test_full_grid_scan_residency_is_one_page(shards):
    """Acceptance: O(page) peak residency on a full-grid streaming scan."""
    store = _store("onion", 2, shards)
    side = SIDE[2]
    whole = Rect((0, 0), (side - 1, side - 1))
    store.disk.reset_stats()
    baseline = store.range_query(whole)
    store.disk.reset_stats()
    cursor = store.cursor(Query.rect(whole))
    rows = cursor.fetchall()
    stats = cursor.stats
    assert rows == baseline.records
    assert stats.seeks == baseline.seeks
    assert stats.pages_read == baseline.pages_read
    assert stats.peak_page_records <= PAGE_CAPACITY
    assert len(baseline.records) > 10 * stats.peak_page_records


def test_limit_early_exit_reads_fewer_pages():
    store = _store("onion", 2, 1)
    side = SIDE[2]
    whole = Rect((0, 0), (side - 1, side - 1))
    full_pages = store.range_query(whole).pages_read
    cursor = store.cursor(Query.rect(whole).limit(5))
    rows = cursor.fetchall()
    assert len(rows) == 5
    assert cursor.stats.truncated
    assert cursor.stats.pages_read < full_pages
    assert cursor.stats.pages_read <= 1 + (5 + PAGE_CAPACITY - 1) // PAGE_CAPACITY


def test_limit_zero_reads_nothing():
    store = _store("hilbert", 2, 2)
    cursor = store.cursor(Query.rect(Rect((0, 0), (7, 7))).limit(0))
    assert cursor.fetchall() == []
    assert cursor.stats.pages_read == 0


def test_closed_cursor_stops_and_freezes_stats():
    store = _store("onion", 2, 1)
    side = SIDE[2]
    cursor = store.cursor(Query.rect(Rect((0, 0), (side - 1, side - 1))))
    first = next(cursor)
    assert first is not None
    cursor.close()
    pages_at_close = cursor.stats.pages_read
    remaining = cursor.fetchall()  # only what was already buffered
    assert len(remaining) < PAGE_CAPACITY
    assert cursor.stats.pages_read == pages_at_close


def test_limit_equal_to_result_count_is_not_truncated():
    """Regression: a limit landing exactly on the last row must not
    report truncation (nothing was cut off)."""
    store = _store("onion", 2, 1)
    rect = Rect((0, 0), (3, 3))
    total = len(store.range_query(rect).records)
    exact = store.cursor(Query.rect(rect).limit(total))
    assert len(exact.fetchall()) == total
    assert not exact.stats.truncated
    short = store.cursor(Query.rect(rect).limit(total - 1))
    assert len(short.fetchall()) == total - 1
    assert short.stats.truncated


def test_fetchmany_zero_fetches_nothing():
    """Regression: fetchmany(0) must not consume a row."""
    store = _store("onion", 2, 1)
    cursor = store.cursor(Query.rect(Rect((0, 0), (7, 7))))
    assert cursor.fetchmany(0) == []
    assert cursor.fetchmany(-3) == []
    assert cursor.stats.rows_yielded == 0
    first = cursor.fetchmany(1)
    assert len(first) == 1


def test_cursor_is_a_context_manager():
    store = _store("onion", 2, 2)
    with store.cursor(Query.rect(Rect((0, 0), (5, 5)))) as cursor:
        rows = cursor.fetchmany(3)
        assert len(rows) == 3
    assert cursor.closed
