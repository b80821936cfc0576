"""Every universe the registry builds serves exact records at the int64 edge.

For each registry curve in dims 2-4, wherever it builds (Peano is 2-d
only, and the 3-d onion needs an even side), two sides: the largest
whose keys fit int64, and the next side the curve builds past it, whose
largest key does not.  At each, single inserts, a bulk load, a
checkpoint with ``recover()`` and a 4-shard store answer a 3^d range
query at the origin corner and one at the far corner with the same
records: the ones those cubes contain.
"""

import pytest

from repro import SFCIndex, ShardedSFCIndex, curve_names, make_curve, recover
from repro.errors import InvalidUniverseError, OutOfUniverseError
from repro.geometry import Rect


def _build(name, side, dim):
    try:
        return make_curve(name, side, dim)
    except (InvalidUniverseError, OutOfUniverseError):
        return None


def _edge_sides(name, dim):
    """The largest side whose keys fit int64 and the next side past it,
    of those ``name`` builds in ``dim`` dims (None where one is missing).

    The candidates are the integer ``dim``-th root of 2**63 and its
    neighbours, and the powers of two and of three on either side of it.
    """
    root = int(round(2 ** (63 / dim)))
    while root**dim > 2**63:
        root -= 1
    while (root + 1) ** dim <= 2**63:
        root += 1
    three = 1
    while three * 3 <= root:
        three *= 3
    two = 1 << (root.bit_length() - 1)
    below = sorted({root, root - 1, two, three}, reverse=True)
    above = sorted({root + 1, root + 2, two * 2, three * 3})
    fits = next((side for side in below if _build(name, side, dim)), None)
    past = next((side for side in above if _build(name, side, dim)), None)
    return fits, past


UNIVERSES = [
    pytest.param(name, dim, side, id=f"{name}-{dim}d-{edge}")
    for name in curve_names()
    for dim in (2, 3, 4)
    for edge, side in zip(("fits", "past"), _edge_sides(name, dim))
    if side is not None
]


def _points(side, dim):
    """Two points in the origin's 3^d cube, two in the far corner's, and
    one in the middle that neither query returns."""
    offsets = tuple(i % 3 for i in range(1, dim + 1))
    return [
        (0,) * dim,
        offsets,
        (side - 1,) * dim,
        tuple(side - 1 - o for o in offsets),
        (side // 2,) * dim,
    ]


def _answers(store, rects):
    return [
        [(record.point, record.payload) for record in store.range_query(rect).records]
        for rect in rects
    ]


@pytest.mark.parametrize("name, dim, side", UNIVERSES)
def test_every_store_path_returns_the_same_records(name, dim, side, tmp_path):
    curve = make_curve(name, side, dim)
    assert (curve.size - 1 <= 2**63 - 1) == (side**dim <= 2**63)
    points = _points(side, dim)
    payloads = list(range(len(points)))
    rects = [
        Rect((0,) * dim, (2,) * dim),
        Rect((side - 3,) * dim, (side - 1,) * dim),
    ]

    inserted = SFCIndex(curve, page_capacity=2)
    for point, payload in zip(points, payloads):
        inserted.insert(point, payload)
    loaded = SFCIndex(curve, page_capacity=2)
    loaded.bulk_load(points, payloads)
    durable = SFCIndex(curve, page_capacity=2, durable_path=tmp_path / "d")
    durable.bulk_load(points, payloads)
    durable.checkpoint()
    durable.durability.close()
    recovered = recover(tmp_path / "d")
    sharded = ShardedSFCIndex(curve, num_shards=4, page_capacity=2)
    sharded.bulk_load(points, payloads)

    answers = _answers(inserted, rects)
    for rect, answer in zip(rects, answers):
        expected = sorted((p, i) for p, i in zip(points, payloads) if rect.contains(p))
        assert len(expected) == 2 and sorted(answer) == expected
    for store in (loaded, recovered, sharded):
        assert _answers(store, rects) == answers
    assert recovered.durability.last_recovery.checkpoint_records == len(points)
