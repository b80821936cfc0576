"""Unit tests for the runtime race-detector harness.

The store concurrency hammer (tests/index/test_sharded_concurrency.py)
proves the harness against the real stores; these tests pin the
primitives themselves — edge recording, re-entrancy, field watching,
and every violation kind — with deterministic single- and two-thread
scenarios.
"""

import threading

import pytest

from racecheck import (
    FieldViolation,
    LockOrderTracker,
    OrderViolation,
    TrackedLock,
    watch_fields,
)


def _locks(tracker):
    mutex = tracker.wrap(threading.RLock(), "_mutex")
    io = tracker.wrap(threading.Lock(), "_io_lock")
    return mutex, io


class TestEdgeRecording:
    def test_nested_acquire_records_an_edge(self):
        tracker = LockOrderTracker()
        mutex, io = _locks(tracker)
        with mutex:
            with io:
                pass
        assert tracker.edges() == {("_mutex", "_io_lock"): 1}
        assert tracker.acquire_counts() == {"_mutex": 1, "_io_lock": 1}

    def test_reentrant_reacquire_adds_no_edge(self):
        tracker = LockOrderTracker()
        mutex, _ = _locks(tracker)
        with mutex:
            with mutex:  # RLock re-entry
                pass
        assert tracker.edges() == {}
        assert tracker.acquire_counts() == {"_mutex": 1}

    def test_sequential_acquires_add_no_edge(self):
        tracker = LockOrderTracker()
        mutex, io = _locks(tracker)
        with mutex:
            pass
        with io:
            pass
        assert tracker.edges() == {}

    def test_stacks_are_per_thread(self):
        tracker = LockOrderTracker()
        mutex, io = _locks(tracker)
        seen_in_thread = []

        def other():
            seen_in_thread.append(tracker.holds("_mutex"))
            with io:
                pass

        with mutex:
            t = threading.Thread(target=other)
            t.start()
            t.join()
        # The other thread does not inherit this thread's holds, so its
        # io acquire creates no _mutex -> _io_lock edge.
        assert seen_in_thread == [False]
        assert tracker.edges() == {}


class TestOrderVerdicts:
    def test_clean_run_has_no_violations(self):
        tracker = LockOrderTracker()
        mutex, io = _locks(tracker)
        with mutex:
            with io:
                pass
        assert tracker.order_violations() == []
        tracker.assert_clean()

    def test_cycle_detected(self):
        tracker = LockOrderTracker()
        mutex, io = _locks(tracker)
        with mutex:
            with io:
                pass
        with io:
            with mutex:
                pass
        kinds = {v.kind for v in tracker.order_violations()}
        assert "cycle" in kinds
        assert "declared-order" in kinds  # io -> mutex breaks the order too
        with pytest.raises(AssertionError, match="deadlock schedule exists"):
            tracker.assert_clean()

    def test_declared_order_alone(self):
        tracker = LockOrderTracker()
        mutex, io = _locks(tracker)
        with io:
            with mutex:
                pass
        violations = tracker.order_violations()
        assert [v.kind for v in violations] == ["declared-order"]

    def test_unexpected_edge_against_static_graph(self):
        tracker = LockOrderTracker()
        mutex, io = _locks(tracker)
        with mutex:
            with io:
                pass
        # Edge is legal by order but absent from the allowed set.
        violations = tracker.order_violations(allowed_edges=set())
        assert [v.kind for v in violations] == ["unexpected-edge"]
        tracker.assert_clean(allowed_edges={("_mutex", "_io_lock")})

    def test_locks_outside_declared_order_are_unordered(self):
        tracker = LockOrderTracker()
        a = tracker.wrap(threading.Lock(), "_other_a")
        b = tracker.wrap(threading.Lock(), "_other_b")
        with a:
            with b:
                pass
        assert tracker.order_violations() == []


class TestTrackedLock:
    def test_delegates_protocol(self):
        tracker = LockOrderTracker()
        lock = tracker.wrap(threading.Lock(), "_io_lock")
        assert isinstance(lock, TrackedLock)
        assert lock.name == "_io_lock"
        assert not lock.locked()
        assert lock.acquire()
        assert lock.locked()
        assert tracker.holds("_io_lock")
        lock.release()
        assert not tracker.holds("_io_lock")

    def test_failed_nonblocking_acquire_is_not_recorded(self):
        tracker = LockOrderTracker()
        inner = threading.Lock()
        lock = tracker.wrap(inner, "_io_lock")
        inner.acquire()
        try:
            assert lock.acquire(blocking=False) is False
            assert not tracker.holds("_io_lock")
            assert tracker.acquire_counts() == {}
        finally:
            inner.release()

    def test_instrument_replaces_attributes(self):
        class Box:
            def __init__(self):
                self._mutex = threading.RLock()
                self._io_lock = threading.Lock()

        tracker = LockOrderTracker()
        box = Box()
        tracker.instrument(box, ["_mutex", "_io_lock"])
        assert isinstance(box._mutex, TrackedLock)
        assert isinstance(box._io_lock, TrackedLock)
        with box._mutex:
            with box._io_lock:
                pass
        assert tracker.edges() == {("_mutex", "_io_lock"): 1}


class TestWatchFields:
    class Counter:
        def __init__(self):
            self._mutex = threading.RLock()
            self._count = 0

        def bump_locked(self):
            with self._mutex:
                self._count += 1

        def bump_unlocked(self):
            self._count += 1

    def _watched(self, tracker):
        counter = self.Counter()
        tracker.instrument(counter, ["_mutex"])
        watch_fields(counter, tracker, {"_count": "_mutex"})
        return counter

    def test_guarded_access_is_clean(self):
        tracker = LockOrderTracker()
        counter = self._watched(tracker)
        counter.bump_locked()
        assert counter._mutex.inner  # object still functional
        with counter._mutex:
            assert counter._count == 1
        assert tracker.field_violations() == ()

    def test_unguarded_write_is_recorded_not_raised(self):
        tracker = LockOrderTracker()
        counter = self._watched(tracker)
        counter.bump_unlocked()  # does not raise
        violations = tracker.field_violations()
        # One read (the += load) and one write.
        operations = sorted(v.operation for v in violations)
        assert operations == ["read", "write"]
        assert all(v.field == "_count" and v.lock == "_mutex" for v in violations)
        with pytest.raises(AssertionError, match="unguarded-write"):
            tracker.assert_clean()

    def test_value_migrates_to_shadow_slot(self):
        tracker = LockOrderTracker()
        counter = self._watched(tracker)
        assert "_count" not in counter.__dict__
        with counter._mutex:
            counter._count = 41
            counter._count += 1
            assert counter._count == 42
        assert counter.__dict__["_racecheck_shadow___count"] == 42

    def test_violation_rendering(self):
        violation = FieldViolation(
            field="_count", lock="_mutex", operation="write", thread="T1"
        )
        assert "unguarded-write" in violation.render()
        order = OrderViolation(
            kind="cycle", first="_a", second="_b", details="d"
        )
        assert order.render() == "[cycle] _a -> _b: d"
