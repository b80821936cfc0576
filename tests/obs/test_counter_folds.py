"""Counter's lock-free non-unit path: no increment is lost to a fold."""

from __future__ import annotations

import sys
import threading

from repro.obs import MetricsRegistry
from repro.obs.metrics import Counter


def _hammer(counter, steps, rounds):
    """Writers append non-unit amounts (and unit ticks) while readers
    fold them into the total, all released at once by a barrier."""
    start = threading.Barrier(len(steps) + 2)
    done = threading.Event()

    def write(step):
        start.wait(timeout=60)
        for _ in range(rounds):
            counter.inc(step)
            counter.inc()

    def read():
        start.wait(timeout=60)
        while not done.is_set():
            counter.value

    readers = [threading.Thread(target=read) for _ in range(2)]
    writers = [threading.Thread(target=write, args=(step,)) for step in steps]
    try:
        for thread in readers + writers:
            thread.start()
        for thread in writers:
            thread.join(timeout=60)
    finally:
        done.set()
        for thread in readers:
            thread.join(timeout=60)
    assert not any(thread.is_alive() for thread in readers + writers)


def test_concurrent_non_unit_increments_survive_folds(monkeypatch):
    """A fold racing appends must keep every increment.  More threads
    than cores and a short switch interval interleave appends with the
    readers' folds; a small pending limit makes the writers fold too."""
    monkeypatch.setattr(Counter, "_PENDING_LIMIT", 50)
    registry = MetricsRegistry(enabled=True)
    steps, rounds = range(2, 8), 20000
    previous = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for attempt in range(5):
            counter = registry.counter(f"repro_test_{attempt}_total", "help")
            _hammer(counter, steps, rounds)
            assert counter.value == rounds * (sum(steps) + len(steps))
    finally:
        sys.setswitchinterval(previous)
    assert registry.errors == 0
