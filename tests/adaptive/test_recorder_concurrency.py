"""WorkloadRecorder under concurrent record/clear/read pressure.

The recorder is the one adaptive component serving threads write into
on every query, so it must tolerate interleaved ``record_executed``,
``clear`` and histogram reads without corrupting its bounded state:
weights stay non-negative and finite, counters never go backwards, and
no reader ever observes a half-applied update (a RuntimeError from a dict mutated mid-iteration
would be the classic symptom).
"""

from __future__ import annotations

import math
import threading

from repro.adaptive import WorkloadRecorder

SHAPES = [(8, 1), (1, 8), (4, 4), (2, 6)]


def _run_threads(workers):
    threads = [threading.Thread(target=w) for w in workers]
    for t in threads:
        t.start()
    for t in threads:
        t.join()


def test_concurrent_record_executed_keeps_totals():
    recorder = WorkloadRecorder()
    n, writers = 800, 6

    def write(worker):
        for i in range(n):
            recorder.record_executed(SHAPES[(worker + i) % len(SHAPES)])

    _run_threads([lambda w=w: write(w) for w in range(writers)])

    assert recorder.executed_events == n * writers
    histogram = recorder.histogram()
    assert set(histogram) <= set(SHAPES)
    assert math.isclose(sum(histogram.values()), 1.0, rel_tol=1e-9)


def test_concurrent_record_and_clear_never_corrupts():
    recorder = WorkloadRecorder()
    stop = threading.Event()
    errors = []

    def write():
        i = 0
        while not stop.is_set():
            recorder.record_executed(SHAPES[i % len(SHAPES)])
            i += 1

    def wipe():
        for _ in range(200):
            recorder.clear()

    def read():
        try:
            while not stop.is_set():
                histogram = recorder.histogram()
                total = sum(histogram.values())
                assert total == 0.0 or math.isclose(total, 1.0, rel_tol=1e-9)
                assert all(w >= 0.0 for w in histogram.values())
                assert recorder.executed_events >= 0
        except Exception as exc:  # surfaced after join; threads can't fail tests
            errors.append(exc)

    writers = [write, write, wipe, read, read]
    threads = [threading.Thread(target=w) for w in writers]
    for t in threads:
        t.start()
    threads[2].join()  # let the clears finish under live write/read load
    stop.set()
    for t in threads:
        t.join()
    assert errors == []
    # A final clear from a quiescent state fully resets the recorder.
    recorder.clear()
    assert recorder.executed_events == 0
    assert recorder.histogram() == {}


def test_concurrent_renormalization_stays_finite():
    """Hammer one shape so the decay scale crosses its renormalization
    limit while other threads read — weights must stay finite."""
    recorder = WorkloadRecorder(half_life=2.0)
    n, writers = 3000, 4

    def write():
        for _ in range(n):
            recorder.record_executed((4, 4))

    def read():
        for _ in range(300):
            for weight in recorder.histogram().values():
                assert math.isfinite(weight)
                assert weight >= 0.0

    _run_threads([write] * writers + [read] * 2)
    assert recorder.executed_events == n * writers
    histogram = recorder.histogram()
    assert set(histogram) == {(4, 4)}
    assert math.isclose(sum(histogram.values()), 1.0, rel_tol=1e-9)
