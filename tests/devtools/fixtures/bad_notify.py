"""Fixture: recorder notified twice or never (notify-once).

``DoubleNotify`` calls ``record_executed`` from both ``close()`` and
the generator's ``finally`` with no idempotence guard — draining then
closing notifies twice.  ``MissingNotify`` yields with no finally at
all — a raising consumer or abandoned stream never reaches the
recorder, and ``close()`` does not notify either.
"""


class DoubleNotify:
    def __init__(self, recorder):
        self._recorder = recorder
        self._pages = [1, 2, 3]

    def stream(self):
        try:
            for page in self._pages:
                yield page
        finally:
            # BUG: no if-recorded guard — close() after a drain repeats this.
            self._recorder.record_executed((1, 1))

    def close(self):
        self._recorder.record_executed((1, 1))


class MissingNotify:
    def __init__(self, recorder):
        self._recorder = recorder
        self._pages = [1, 2, 3]
        self._done = False

    def stream(self):
        # BUG: no try/finally — an abandoned stream never notifies.
        for page in self._pages:
            yield page
        self._finalize()

    def close(self):
        # BUG: closing without draining never notifies either.
        self._done = True

    def _finalize(self):
        if self._done:
            return
        self._done = True
        self._recorder.record_executed((1, 1))
