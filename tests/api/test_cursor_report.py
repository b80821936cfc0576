"""A drained cursor reports exactly what ``execute`` reports.

An execution reports its realized I/O as attributes of its one
``kind="io"`` span, and its shape to the workload recorder.  The cursor
equivalence suite compares records and I/O totals; this one compares
the report itself.  Twin fresh stores run the same query — one through
``execute``, the other by draining a cursor — and must report
identically, buffer-pool cold misses included, across store
topologies, pool sizes, gap tolerances and rects.
"""

import pytest

from repro.adaptive import WorkloadRecorder
from repro.api import Query
from repro.curves import make_curve
from repro.geometry import Rect
from repro.index import SFCIndex, ShardedSFCIndex
from repro.obs import start_trace

SIDE = 16

#: Every I/O attribute an execution stamps on its ``kind="io"`` span.
IO_ATTRS = ("seeks", "sequential_reads", "pages", "over_read", "records", "pool_misses")

RECTS = [
    Rect((0, 0), (11, 11)),
    Rect((3, 5), (14, 7)),
    Rect((6, 0), (6, 15)),
]


def _store(shards, buffer_pages):
    recorder = WorkloadRecorder()
    curve = make_curve("onion", SIDE, 2)
    if shards == 1:
        store = SFCIndex(
            curve, page_capacity=4, buffer_pages=buffer_pages, recorder=recorder
        )
    else:
        store = ShardedSFCIndex(
            curve,
            num_shards=shards,
            page_capacity=4,
            buffer_pages=buffer_pages,
            recorder=recorder,
        )
    points = [(x, y) for x in range(SIDE) for y in range(SIDE) if (x + y) % 3]
    store.bulk_load(points, payloads=iter(range(len(points))))
    store.flush()
    recorder.clear()  # only the compared execution counts
    return store, recorder


def _report(trace, recorder):
    """The io span's I/O attributes and what the recorder saw."""
    (io_span,) = [s for s in trace.walk() if s.kind == "io"]
    assert recorder.executed_events == 1
    return {key: io_span.attrs.get(key) for key in IO_ATTRS}, recorder.histogram()


@pytest.mark.parametrize("rect", RECTS, ids=["square", "band", "column"])
@pytest.mark.parametrize("gap", [0, 3], ids=["exact", "gap3"])
@pytest.mark.parametrize("buffer_pages", [0, 64], ids=["nopool", "pool"])
@pytest.mark.parametrize("shards", [1, 3], ids=["single", "sharded"])
def test_drained_cursor_reports_what_execute_reports(shards, buffer_pages, gap, rect):
    query = Query.rect(rect).hint(gap_tolerance=gap)
    executed, executed_recorder = _store(shards, buffer_pages)
    streamed, streamed_recorder = _store(shards, buffer_pages)

    with start_trace("execute") as execute_trace:
        result = executed.execute(query)
    with start_trace("cursor") as cursor_trace:
        with streamed.cursor(query) as cursor:
            rows = cursor.fetchall()

    assert rows == result.records
    attrs, shapes = _report(cursor_trace, streamed_recorder)
    assert (attrs, shapes) == _report(execute_trace, executed_recorder)
    assert shapes == {rect.lengths: 1.0}
    assert attrs["records"] == len(rows) > 0
    assert (attrs["pool_misses"] is None) == (buffer_pages == 0)
