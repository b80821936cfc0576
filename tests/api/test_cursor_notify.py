"""Regression: the Cursor notifies the recorder exactly once, always.

The adaptive control plane budgets drift checks on
``recorder.executed_events``; a cursor that notifies twice (close after
drain) skews the histogram toward streamed shapes, and one that never
notifies (raising predicate, abandoned consumer) starves the detector.
These tests pin the exactly-once contract on every lifecycle path the
front door exposes — including the exception paths ``repro lint``'s
``notify-once`` rule guards statically.
"""

import gc

import pytest

from repro.adaptive import WorkloadRecorder
from repro.api import Query
from repro.curves import make_curve
from repro.geometry import Rect
from repro.index import SFCIndex, ShardedSFCIndex

SIDE = 16
RECT = Rect((0, 0), (11, 11))


class _Boom(RuntimeError):
    pass


def _store(shards, recorder):
    curve = make_curve("onion", SIDE, 2)
    if shards == 1:
        store = SFCIndex(curve, page_capacity=4, recorder=recorder)
    else:
        store = ShardedSFCIndex(
            curve,
            num_shards=shards,
            page_capacity=4,
            recorder=recorder,
        )
    points = [(x, y) for x in range(SIDE) for y in range(SIDE) if (x + y) % 3]
    store.bulk_load(points, payloads=iter(range(len(points))))
    store.flush()
    recorder.clear()  # only cursor traffic counts in the assertions
    return store


@pytest.fixture(params=[1, 3], ids=["single", "sharded"])
def store_and_recorder(request):
    recorder = WorkloadRecorder()
    return _store(request.param, recorder), recorder


def test_drain_notifies_once(store_and_recorder):
    store, recorder = store_and_recorder
    cursor = store.cursor(Query.rect(RECT))
    rows = cursor.fetchall()
    assert rows
    assert recorder.executed_events == 1


def test_drain_then_close_does_not_double_notify(store_and_recorder):
    store, recorder = store_and_recorder
    cursor = store.cursor(Query.rect(RECT))
    cursor.fetchall()
    cursor.close()
    cursor.close()
    assert recorder.executed_events == 1


def test_early_close_notifies_once(store_and_recorder):
    store, recorder = store_and_recorder
    cursor = store.cursor(Query.rect(RECT))
    next(iter(cursor))
    cursor.close()
    cursor.close()
    assert recorder.executed_events == 1


def test_limit_early_exit_notifies_once(store_and_recorder):
    store, recorder = store_and_recorder
    rows = store.cursor(Query.rect(RECT).limit(3)).fetchall()
    assert len(rows) == 3
    assert recorder.executed_events == 1


def test_raising_predicate_closes_and_notifies_once(store_and_recorder):
    store, recorder = store_and_recorder

    def predicate(record):
        raise _Boom("user predicate exploded")

    cursor = store.cursor(Query.rect(RECT).where(predicate))
    with pytest.raises(_Boom):
        next(iter(cursor))
    # The raise must close the cursor deterministically — not leave the
    # notification to whenever GC finalizes the underlying generator.
    assert cursor.closed
    assert recorder.executed_events == 1
    cursor.close()
    assert recorder.executed_events == 1


def test_raising_projection_closes_and_notifies_once(store_and_recorder):
    store, recorder = store_and_recorder

    def projection(record):
        raise _Boom("user projection exploded")

    cursor = store.cursor(Query.rect(RECT).select(projection))
    with pytest.raises(_Boom):
        next(iter(cursor))
    assert cursor.closed
    assert recorder.executed_events == 1


def test_predicate_raising_mid_stream_after_rows(store_and_recorder):
    """The predicate passes for a while, then raises: rows already
    yielded stay yielded, the failure closes the stream, one notify."""
    store, recorder = store_and_recorder
    seen = []

    def predicate(record):
        if len(seen) >= 5:
            raise _Boom("flaked after five")
        seen.append(record)
        return True

    cursor = store.cursor(Query.rect(RECT).where(predicate))
    rows = []
    with pytest.raises(_Boom):
        for row in cursor:
            rows.append(row)
    assert cursor.closed
    assert recorder.executed_events == 1


def test_abandoned_cursor_notifies_once_on_gc(store_and_recorder):
    store, recorder = store_and_recorder
    cursor = store.cursor(Query.rect(RECT))
    next(iter(cursor))  # pull one row, then walk away
    del cursor
    gc.collect()
    assert recorder.executed_events == 1


def test_context_manager_exit_notifies_once(store_and_recorder):
    store, recorder = store_and_recorder
    with pytest.raises(_Boom):
        with store.cursor(Query.rect(RECT)) as cursor:
            next(iter(cursor))
            raise _Boom("consumer body failed")
    assert cursor.closed
    assert recorder.executed_events == 1
