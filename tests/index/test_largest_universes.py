"""Stores on the 3-d universes whose keys fit int64 but not 62 bits.

At side 2**21 a 3-d key has up to 63 bits.  It fits int64, but the
Hilbert, z-order and Gray vectorized kernels key at most 62 bits.  A
bulk load, a range query and a recovery key cells through ``keys_of``
and ``cells_of``, which take the scalar kernels there.
"""

import numpy as np
import pytest

from repro import SFCIndex, make_curve, recover
from repro.geometry import Rect

SIDE = 2**21
CURVES = ["hilbert", "zorder", "gray"]
#: A 3x3x3 rect at the origin, and one at the far corner.
RECTS = [Rect((0, 0, 0), (2, 2, 2)), Rect((SIDE - 3,) * 3, (SIDE - 1,) * 3)]


def _points():
    rng = np.random.default_rng(21)
    near = rng.integers(0, 4, size=(40, 3))
    far = rng.integers(SIDE - 4, SIDE, size=(20, 3))
    anywhere = rng.integers(0, SIDE, size=(20, 3))
    return [tuple(int(v) for v in p) for p in np.concatenate([near, far, anywhere])]


def _answers(store):
    return [
        [(record.point, record.payload) for record in store.range_query(rect).records]
        for rect in RECTS
    ]


@pytest.mark.parametrize("name", CURVES)
def test_bulk_load_answers_like_single_inserts(name):
    curve = make_curve(name, SIDE, 3)
    assert curve.size - 1 == 2**63 - 1
    points = _points()
    loaded = SFCIndex(curve, page_capacity=4)
    loaded.bulk_load(points, payloads=range(len(points)))
    inserted = SFCIndex(curve, page_capacity=4)
    for i, point in enumerate(points):
        inserted.insert(point, i)
    answers = _answers(loaded)
    assert answers == _answers(inserted)
    for rect, answer in zip(RECTS, answers):
        expected = sorted(i for i, point in enumerate(points) if rect.contains(point))
        assert expected and sorted(payload for _, payload in answer) == expected


@pytest.mark.parametrize("name", CURVES)
def test_durable_store_recovers_its_checkpoint(name, tmp_path):
    curve = make_curve(name, SIDE, 3)
    points = _points()
    store = SFCIndex(curve, page_capacity=4, durable_path=tmp_path / "d")
    for i, point in enumerate(points):
        store.insert(point, i)
    store.checkpoint(compact=True)
    store.insert((2, 2, 2), "replayed")
    # Recovery bulk loads the checkpoint's records, keying them again.
    recovered = recover(tmp_path / "d")
    report = recovered.durability.last_recovery
    assert (report.checkpoint_records, report.frames_replayed) == (len(points), 1)
    assert _answers(recovered) == _answers(store)
