"""Differential acceptance: traced span attribution ≡ untraced cost.

The tentpole's correctness bar: for a fully drained traced query, the
``kind="io"`` spans' seek/page/over-read attribution must sum *exactly*
to the untraced result's cost fields — across curves, shard counts 1–4
and both execution modes (materialized and streaming).  Tracing is an
observer: it must never change what it observes, and it must never
double-count (per-shard ``kind="shard"`` breakdowns stay out of the
canonical sums).
"""

from __future__ import annotations

import pytest

from repro.api import Query
from repro.curves import make_curve
from repro.geometry import Rect
from repro.index import SFCIndex, ShardedSFCIndex
from repro.obs import start_trace

CURVES = ["onion", "hilbert", "zorder"]
SHARDS = [1, 2, 3, 4]
SIDE = 16
PAGE_CAPACITY = 8

RECTS = [
    Rect((1, 2), (9, 11)),
    Rect((0, 0), (15, 3)),
    Rect((4, 4), (12, 12)),
    Rect((7, 0), (7, 15)),
]

#: Stores are immutable after flush; share them across parametrizations.
_STORES = {}


def _points(side):
    points = []
    for key in range(side * side):
        if key % 5 == 2:
            continue  # holes make pages span irregular key gaps
        points.append((key % side, key // side))
    return points


def _store(curve_name, shards):
    spec = (curve_name, shards)
    store = _STORES.get(spec)
    if store is None:
        curve = make_curve(curve_name, SIDE, 2)
        if shards == 1:
            store = SFCIndex(curve, page_capacity=PAGE_CAPACITY)
        else:
            store = ShardedSFCIndex(
                curve,
                num_shards=shards,
                page_capacity=PAGE_CAPACITY,
            )
        store.bulk_load(_points(SIDE))
        store.flush()
        _STORES[spec] = store
    return store


@pytest.mark.parametrize("streaming", [False, True], ids=["materialized", "streamed"])
@pytest.mark.parametrize("shards", SHARDS)
@pytest.mark.parametrize("curve_name", CURVES)
def test_traced_io_totals_equal_untraced_cost(curve_name, shards, streaming):
    store = _store(curve_name, shards)
    for rect in RECTS:
        query = Query.rect(rect)

        store.disk.reset_stats()
        if streaming:
            with store.cursor(query) as cursor:
                records = sum(1 for _ in cursor)
                untraced = cursor.stats
        else:
            untraced = store.execute(query)
            records = len(untraced.records)

        store.disk.reset_stats()
        with start_trace("query") as trace:
            if streaming:
                with store.cursor(query) as cursor:
                    traced_records = sum(1 for _ in cursor)
                    traced = cursor.stats
            else:
                traced = store.execute(query)
                traced_records = len(traced.records)

        totals = trace.io_totals()
        assert totals["seeks"] == traced.seeks == untraced.seeks
        assert (
            totals["sequential_reads"]
            == traced.sequential_reads
            == untraced.sequential_reads
        )
        assert totals["over_read"] == traced.over_read == untraced.over_read
        assert totals["pages"] == traced.pages_read == untraced.pages_read
        assert totals["records"] == traced_records == records


@pytest.mark.parametrize("shards", [1, 3])
@pytest.mark.parametrize("curve_name", CURVES)
def test_traced_union_query_matches(curve_name, shards):
    store = _store(curve_name, shards)
    query = Query.union_of([RECTS[0], RECTS[1]]).hint(gap_tolerance=2)

    store.disk.reset_stats()
    untraced = store.execute(query)

    store.disk.reset_stats()
    with start_trace("union") as trace:
        traced = store.execute(query)

    totals = trace.io_totals()
    assert totals["seeks"] == traced.seeks == untraced.seeks
    assert totals["over_read"] == traced.over_read == untraced.over_read
    assert totals["pages"] == traced.pages_read == untraced.pages_read
    assert totals["records"] == len(traced.records) == len(untraced.records)


@pytest.mark.parametrize("shards", [1, 2])
def test_traced_knn_matches(shards):
    """Every kNN expansion runs through the plan/execute path, so the
    io spans under the ``knn`` span sum to the KNNResult's profile."""
    store = _store("onion", shards)

    store.disk.reset_stats()
    with start_trace("knn") as trace:
        result = store.knn((8, 8), 7)

    totals = trace.io_totals()
    assert totals["seeks"] == result.seeks
    assert totals["sequential_reads"] == result.sequential_reads
    assert totals["pages"] == result.pages_read
    # records_scanned counts matched + over-read records per expansion.
    assert totals["records"] + totals["over_read"] == result.records_scanned
    knn_spans = trace.find("knn")
    assert len(knn_spans) == 1
    assert knn_spans[0].attrs["expansions"] == result.expansions
    # One canonical io span per expansion — no double counting.
    io_spans = [s for s in trace.walk() if s.kind == "io"]
    assert len(io_spans) == result.expansions


@pytest.mark.parametrize("shards", [1, 4])
def test_exactly_one_io_span_per_execution(shards):
    store = _store("hilbert", shards)
    with start_trace("one") as trace:
        store.execute(Query.rect(RECTS[0]))
    io_spans = [s for s in trace.walk() if s.kind == "io"]
    assert len(io_spans) == 1
    # The per-shard breakdowns are present but non-canonical.
    if shards > 1:
        shard_spans = [s for s in trace.walk() if s.kind == "shard"]
        assert shard_spans, "sharded execution should attribute per-shard spans"
        assert sum(s.attrs["seeks"] for s in shard_spans) >= trace.io_totals()["seeks"]


def test_tracing_does_not_change_charged_cost():
    """The observer effect check: identical seeks with and without a trace."""
    store = _store("onion", 2)
    query = Query.rect(RECTS[2])
    store.disk.reset_stats()
    bare = store.execute(query)
    store.disk.reset_stats()
    with start_trace("observed"):
        observed = store.execute(query)
    assert (bare.seeks, bare.sequential_reads, bare.over_read) == (
        observed.seeks,
        observed.sequential_reads,
        observed.over_read,
    )
