"""The layout a store must serve, from a model that never reads the store.

:class:`ArrivalModel` keeps every live record as one ``(point,
payload)`` in a list, in arrival order.  A delete removes the first
match at its point, in that order, and the layout a read must serve is
that list stably sorted by the current curve's key.  The merge-flush,
bulk-load and durability suites apply each write to a store and to its
model, and compare every read's layout and every checkpoint's page
images with the model's: keys and their dtype, each record's point and
payload, and page sizes.  The model reads no tree, no columns and no
write delta of the store, so the store cannot share a bug with it.
"""

from itertools import islice

import numpy as np

from repro.api import ANY

#: An ``int64`` key column holds only keys below this.
INT64_MAX = 2**63 - 1


class ArrivalModel:
    """Every live record as ``(point, payload)``, in arrival order."""

    def __init__(self):
        self.rows = []

    def insert(self, point, payload=None):
        self.rows.append((tuple(map(int, point)), payload))

    def bulk_load(self, points, payloads=None):
        """Append ``points`` in order, paired with ``payloads`` (which may
        run longer, as ``bulk_load`` allows)."""
        points = [tuple(map(int, point)) for point in points]
        if payloads is None:
            payloads = [None] * len(points)
        self.rows.extend(zip(points, islice(payloads, len(points))))

    def delete(self, point, payload=ANY):
        """Remove the first record at ``point`` (whose payload equals
        ``payload``, unless it is :data:`~repro.api.ANY`); True when one
        was removed."""
        point = tuple(map(int, point))
        for i, (at, stored) in enumerate(self.rows):
            if at == point and (payload is ANY or stored == payload):
                del self.rows[i]
                return True
        return False

    def __len__(self):
        return len(self.rows)

    def layout(self, curve):
        """``(key, point, payload)`` of every record, stably sorted by
        ``curve``'s key: equal keys keep arrival order."""
        keyed = [(curve.index(point), point, payload) for point, payload in self.rows]
        return sorted(keyed, key=lambda row: row[0])

    def page_images(self, curve, capacity):
        """The ``(point, payload)`` pairs of :meth:`layout`, cut into
        pages of ``capacity``: what a checkpoint must write."""
        pairs = [(point, payload) for _, point, payload in self.layout(curve)]
        return [pairs[i : i + capacity] for i in range(0, len(pairs), capacity)]

    def assert_served(self, store):
        """``store``'s flushed layout is the model's, under its curve."""
        layout = store.page_layout
        expected = self.layout(store.curve)
        keys = [key for key, _, _ in expected]
        assert layout.keys.dtype == (np.int64 if not keys or keys[-1] < INT64_MAX else object)
        assert layout.keys.tolist() == keys
        assert [(record.point, record.payload) for record in layout.records] == [
            (point, payload) for _, point, payload in expected
        ]
        full, short = divmod(len(keys), layout.capacity)
        assert [len(page) for page in layout.pages] == [layout.capacity] * full + (
            [short] if short else []
        )


class Modelled:
    """A store and its :class:`ArrivalModel`, written together."""

    def __init__(self, store):
        self.store = store
        self.model = ArrivalModel()

    def insert(self, point, payload=None):
        self.store.insert(point, payload)
        self.model.insert(point, payload)

    def bulk_load(self, points, payloads=None):
        points = list(points)
        payloads = None if payloads is None else list(payloads)
        self.store.bulk_load(points, payloads)
        self.model.bulk_load(points, payloads)

    def delete(self, point, payload=ANY):
        """Delete from both; they must agree on whether a record matched."""
        removed = self.store.delete(point, payload)
        assert removed == self.model.delete(point, payload)
        return removed

    def empty(self):
        """Delete every record, one call per record, in arrival order."""
        for point, payload in list(self.model.rows):
            assert self.delete(point, payload)
        assert len(self.store) == len(self.model) == 0
