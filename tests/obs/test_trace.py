"""Unit tests for the tracing plane: span lifecycle, balance, exports.

The load-bearing invariant (CONTRIBUTING invariant 10): every span that
starts ends *exactly once*, on every path — normal drain, early close,
exceptions unwinding through predicates and generators.  A trace with a
live span after the traced operation returned is a leak; a span ended
twice would stamp a bogus duration.
"""

from __future__ import annotations

import json

import pytest

from repro.api import Query
from repro.curves import make_curve
from repro.geometry import Rect
from repro.index import SFCIndex, ShardedSFCIndex
from repro.obs import NULL_SPAN, current_span, current_trace, open_span, span, start_trace


def _store():
    index = SFCIndex(make_curve("onion", 8, 2), page_capacity=4)
    index.bulk_load([(x, y) for x in range(8) for y in range(8)])
    index.flush()
    return index


def _assert_balanced(trace):
    spans = list(trace.walk())
    assert spans, "a traced operation should have produced spans"
    for s in spans:
        assert s.ended, f"span {s.name!r} ({s.kind}) was never ended"


# ---------------------------------------------------------------------------
# primitives
# ---------------------------------------------------------------------------


def test_span_outside_trace_is_null():
    assert current_trace() is None
    assert span("anything") is NULL_SPAN
    assert open_span("anything") is NULL_SPAN
    with span("anything") as s:
        assert s is NULL_SPAN
        s.set("ignored", 1)
        s.add("ignored", 2)
    assert NULL_SPAN.attrs == {}


def test_nested_spans_parent_correctly():
    with start_trace("t") as trace:
        with span("outer") as outer:
            with span("inner") as inner:
                assert current_span() is inner
            assert current_span() is outer
        assert current_span() is None
    assert trace.spans == [outer]
    assert outer.children == [inner]
    assert inner.parent is outer
    _assert_balanced(trace)


def test_span_ends_exactly_once_on_exception():
    with pytest.raises(RuntimeError):
        with start_trace("t") as trace:
            with span("boom"):
                raise RuntimeError("unwind")
    (boom,) = trace.find("boom")
    assert boom.ended
    end_at_exit = boom._end
    boom.end()  # idempotent: the first end wins
    assert boom._end == end_at_exit


def test_trace_exit_ends_dangling_spans():
    """An exception unwinding past a span's owner still ends it."""
    with start_trace("t") as trace:
        leaked = span("leaked")
        leaked.__enter__()  # entered, never exited (simulated buggy owner)
    _assert_balanced(trace)


def test_open_span_is_floating():
    with start_trace("t") as trace:
        with span("parent") as parent:
            floating = open_span("floating", kind="io")
            # Floating spans parent under the current span but do NOT
            # become the current span (nothing nests under them).
            assert current_span() is parent
        assert not floating.ended
        floating.end()
        floating.end()  # idempotent
    assert floating.parent is parent
    _assert_balanced(trace)


def test_start_trace_nests_and_restores():
    with start_trace("outer") as outer:
        with span("a"):
            with start_trace("inner") as inner:
                with span("b"):
                    assert current_trace() is inner
            assert current_trace() is outer
    assert [s.name for s in outer.walk()] == ["a"]
    assert [s.name for s in inner.walk()] == ["b"]


# ---------------------------------------------------------------------------
# balance through the real query path
# ---------------------------------------------------------------------------


def test_spans_balance_on_raising_predicate():
    """An exception thrown out of a streamed predicate must not leak
    the PlanStream's floating io span."""
    store = _store()

    def explode(record):
        raise ValueError("predicate boom")

    query = Query.rect(Rect((0, 0), (7, 7))).where(explode)
    with start_trace("t") as trace:
        with pytest.raises(ValueError):
            with store.cursor(query) as cursor:
                list(cursor)
    _assert_balanced(trace)


def test_spans_balance_on_abandoned_cursor():
    """Closing a half-drained cursor ends the stream span exactly once."""
    store = _store()
    with start_trace("t") as trace:
        cursor = store.cursor(Query.rect(Rect((0, 0), (7, 7))))
        next(iter(cursor))
        cursor.close()
        cursor.close()  # double close stays exactly-once
    (stream_span,) = [s for s in trace.walk() if s.name == "stream"]
    assert stream_span.ended
    assert stream_span.attrs["drained"] is False
    _assert_balanced(trace)


def test_spans_balance_on_drained_stream():
    store = _store()
    with start_trace("t") as trace:
        with store.cursor(Query.rect(Rect((2, 2), (5, 5)))) as cursor:
            rows = list(cursor)
    assert rows
    (stream_span,) = [s for s in trace.walk() if s.name == "stream"]
    assert stream_span.attrs["drained"] is True
    _assert_balanced(trace)


def test_spans_balance_on_limited_query():
    store = _store()
    with start_trace("t") as trace:
        result = store.execute(Query.rect(Rect((0, 0), (7, 7))).limit(3))
    assert len(result.rows) == 3
    _assert_balanced(trace)


def test_spans_balance_under_predicate_and_projection():
    store = _store()
    with start_trace("t") as trace:
        store.execute(
            Query.rect(Rect((0, 0), (6, 6)))
            .where(lambda r: r.point[0] % 2 == 0)
            .select(lambda r: r.point)
        )
    _assert_balanced(trace)


@pytest.mark.parametrize("shards", [1, 4])
def test_batch_emits_one_batch_span_with_its_totals(shards):
    """Single and sharded batches open the same ``kind="batch"`` span."""
    curve = make_curve("onion", 8, 2)
    if shards == 1:
        store = SFCIndex(curve, page_capacity=4)
    else:
        store = ShardedSFCIndex(curve, num_shards=shards, page_capacity=4)
    store.bulk_load([(x, y) for x in range(8) for y in range(8)])
    store.flush()
    with start_trace("t") as trace:
        batch = store.range_query_batch([Rect((0, 0), (3, 5)), Rect((2, 4), (7, 7))])
    (batch_span,) = [s for s in trace.walk() if s.kind == "batch"]
    assert batch_span.attrs == {
        "queries": 2,
        "seeks": batch.total_seeks,
        "sequential_reads": batch.total_sequential_reads,
    }
    _assert_balanced(trace)


# ---------------------------------------------------------------------------
# exports
# ---------------------------------------------------------------------------


def test_to_dict_and_json_round_trip():
    store = _store()
    with start_trace("q") as trace:
        store.execute(Query.rect(Rect((1, 1), (6, 6))))
    payload = json.loads(trace.to_json())
    assert payload["name"] == "q"
    assert payload["io_totals"] == trace.io_totals()
    names = [s["name"] for s in payload["spans"]]
    assert "execute" in names or "stream" in names

    def check(node):
        assert set(node) == {"name", "kind", "duration_s", "attrs", "children"}
        assert node["duration_s"] >= 0
        for child in node["children"]:
            check(child)

    for node in payload["spans"]:
        check(node)


def test_chrome_export_shape():
    store = _store()
    with start_trace("q") as trace:
        store.execute(Query.rect(Rect((1, 1), (6, 6))))
    payload = json.loads(trace.to_chrome_json())
    events = payload["traceEvents"]
    assert events
    for event in events:
        assert event["ph"] == "X"
        assert event["ts"] >= 0
        assert event["dur"] >= 0
        assert {"name", "cat", "pid", "tid", "args"} <= set(event)
    # one chrome event per span
    assert len(events) == sum(1 for _ in trace.walk())


def test_render_mentions_io_totals():
    store = _store()
    with start_trace("q") as trace:
        result = store.execute(Query.rect(Rect((0, 0), (3, 3))))
    text = trace.render()
    assert text.startswith("trace q")
    assert f"seeks={result.seeks}" in text
    assert "io totals:" in text
