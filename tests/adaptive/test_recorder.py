"""WorkloadRecorder: decayed histogram, event count, thread safety, hooks."""

import threading

import pytest

from repro.adaptive import WorkloadRecorder
from repro.curves import make_curve
from repro.errors import InvalidQueryError
from repro.geometry import Rect
from repro.index import SFCIndex, ShardedSFCIndex
from repro.obs import start_trace


def record_n(recorder, shape, n):
    for _ in range(n):
        recorder.record_executed(shape)


class TestHistogram:
    def test_normalized(self):
        recorder = WorkloadRecorder(half_life=None)
        record_n(recorder, (8, 1), 3)
        record_n(recorder, (4, 4), 1)
        histogram = recorder.histogram()
        assert sum(histogram.values()) == pytest.approx(1.0)
        assert histogram[(8, 1)] == pytest.approx(0.75)
        assert histogram[(4, 4)] == pytest.approx(0.25)

    def test_empty_when_idle(self):
        assert WorkloadRecorder().histogram() == {}

    def test_decay_follows_drift(self):
        """Equal counts, but the newer shape carries more weight."""
        recorder = WorkloadRecorder(half_life=4.0)
        record_n(recorder, (8, 1), 20)
        record_n(recorder, (4, 4), 20)
        histogram = recorder.histogram()
        assert histogram[(4, 4)] > 0.9 > histogram[(8, 1)]

    def test_half_life_halves_weight(self):
        """An event half_life events older weighs exactly half."""
        recorder = WorkloadRecorder(half_life=10.0)
        recorder.record_executed((1, 1))
        record_n(recorder, (3, 3), 9)  # filler advancing the clock
        recorder.record_executed((2, 2))
        histogram = recorder.histogram()
        assert histogram[(2, 2)] / histogram[(1, 1)] == pytest.approx(2.0, rel=1e-9)

    def test_scale_renormalization_is_lossless(self):
        """Many events overflow the scale; ratios survive renormalization."""
        recorder = WorkloadRecorder(half_life=2.0)  # scale grows fast
        for i in range(500):
            recorder.record_executed((1, 1) if i % 2 else (2, 2))
        histogram = recorder.histogram()
        assert sum(histogram.values()) == pytest.approx(1.0)
        # Alternating shapes with decay: the ratio is exactly 2**(1/2).
        assert histogram[(1, 1)] / histogram[(2, 2)] == pytest.approx(
            2 ** 0.5, rel=1e-6
        )

    def test_clear_resets_everything(self):
        recorder = WorkloadRecorder()
        record_n(recorder, (3, 3), 5)
        recorder.clear()
        assert recorder.histogram() == {}
        assert recorder.executed_events == 0


class TestBoundedTelemetry:
    def test_tracked_shapes_stay_bounded(self):
        from repro.adaptive.recorder import _MAX_TRACKED_SHAPES

        recorder = WorkloadRecorder(half_life=None)
        for i in range(_MAX_TRACKED_SHAPES + 50):
            recorder.record_executed((i + 1, 1))
        histogram = recorder.histogram()
        assert len(histogram) <= _MAX_TRACKED_SHAPES
        assert recorder.executed_events == _MAX_TRACKED_SHAPES + 50
        # The newest shape survives; some oldest were evicted.
        assert (_MAX_TRACKED_SHAPES + 50, 1) in histogram
        assert (1, 1) not in histogram


class TestValidation:
    def test_bad_half_life(self):
        with pytest.raises(InvalidQueryError):
            WorkloadRecorder(half_life=0)


class TestThreadSafety:
    def test_concurrent_recording_loses_nothing(self):
        recorder = WorkloadRecorder(half_life=16.0)
        threads = 8
        per_thread = 500

        def hammer(i):
            for _ in range(per_thread):
                recorder.record_executed((i + 1, 1))
                recorder.histogram()

        workers = [threading.Thread(target=hammer, args=(i,)) for i in range(threads)]
        for w in workers:
            w.start()
        for w in workers:
            w.join()
        assert recorder.executed_events == threads * per_thread
        assert sum(recorder.histogram().values()) == pytest.approx(1.0)


class TestIndexHooks:
    """Both executors report without being asked: each executed query's
    shape to the recorder, and its cold misses on its execution span."""

    def test_single_index_reports_executed(self):
        recorder = WorkloadRecorder()
        index = SFCIndex(make_curve("onion", 8, 2), page_capacity=4, recorder=recorder)
        index.bulk_load([(x, y) for x in range(8) for y in range(8)])
        index.flush()
        rect = Rect((1, 1), (4, 4))
        index.range_query(rect)
        assert recorder.executed_events == 1
        assert recorder.histogram() == {(4, 4): 1.0}
        # A cache hit skips the planner but the executor still reports.
        index.range_query(rect)
        assert recorder.executed_events == 2

    def test_sharded_index_reports_executed(self):
        recorder = WorkloadRecorder(half_life=None)
        index = ShardedSFCIndex(
            make_curve("onion", 8, 2), num_shards=4, page_capacity=4,
            recorder=recorder,
        )
        index.bulk_load([(x, y) for x in range(8) for y in range(8)])
        index.flush()
        index.range_query_batch([Rect((0, 0), (3, 3)), Rect((2, 2), (6, 6))])
        assert recorder.executed_events == 2
        assert recorder.histogram() == {(4, 4): 0.5, (5, 5): 0.5}

    @staticmethod
    def _pool_misses(index, rect):
        with start_trace("query") as trace:
            index.range_query(rect)
        (io_span,) = [s for s in trace.walk() if s.kind == "io"]
        return io_span.attrs["pool_misses"]

    def test_buffer_pool_cold_misses_reported(self):
        index = SFCIndex(make_curve("onion", 8, 2), page_capacity=4, buffer_pages=32)
        index.bulk_load([(x, y) for x in range(8) for y in range(8)])
        index.flush()
        rect = Rect((1, 1), (5, 5))
        assert self._pool_misses(index, rect) > 0
        assert self._pool_misses(index, rect) == 0  # warm: every page resident

    def test_sharded_buffer_pool_cold_misses(self):
        index = ShardedSFCIndex(
            make_curve("onion", 8, 2), num_shards=2, page_capacity=4,
            buffer_pages=32,
        )
        index.bulk_load([(x, y) for x in range(8) for y in range(8)])
        index.flush()
        rect = Rect((1, 1), (5, 5))
        assert self._pool_misses(index, rect) > 0
        assert self._pool_misses(index, rect) == 0
