"""Fixture: a thread-safe module every rule should pass silently.

Exercises the same shapes the bad fixtures break: guarded fields (all
accesses locked), the declared lock order, a guarded notify-once
stream, epoch-bumping layout swaps, and immutable defaults.
"""

import threading


class DisciplinedStore:
    def __init__(self):
        self._mutex = threading.RLock()
        self._io_lock = threading.Lock()
        self._items = []  # guarded-by: _mutex
        self._layout = None  # guarded-by: _mutex
        self._epoch = 0  # guarded-by: _mutex

    def add(self, item):
        with self._mutex:
            self._items.append(item)

    def snapshot(self):
        with self._mutex:
            return list(self._items), self._epoch

    def swap(self, layout):
        with self._mutex:
            self._layout = layout
            self._epoch += 1
            with self._io_lock:
                pass  # clear caches under the io lock — the legal edge


class DisciplinedStream:
    def __init__(self, recorder, pages=()):
        self._recorder = recorder
        self._pages = tuple(pages)
        self._recorded = False

    def stream(self):
        try:
            for page in self._pages:
                yield page
        finally:
            self._finalize()

    def close(self):
        self._finalize()

    def _finalize(self):
        if self._recorded:
            return
        self._recorded = True
        self._recorder.record_executed((1, 1))
