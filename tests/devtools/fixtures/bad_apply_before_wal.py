"""Seeded bug for ``durability-ordering`` (log-then-apply): state is
mutated *before* the WAL append that would make the mutation
replayable — a crash between the two loses the write silently.

``good_insert`` shows the disciplined order and must stay silent.
"""


class Ledger:
    def __init__(self):
        self._rows = {}

    def _log_durable(self, op, key, value):
        raise NotImplementedError

    def _append_records(self, keys, values):
        self._rows.update(zip(keys, values))

    def bad_insert(self, key, value):
        self._append_records((key,), (value,))
        self._log_durable("insert", key, value)

    def good_insert(self, key, value):
        self._log_durable("insert", key, value)
        self._append_records((key,), (value,))
