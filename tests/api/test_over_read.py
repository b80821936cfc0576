"""Over-read against an oracle that reads points.

A gap-merged plan also scans tolerated-gap keys.  Its records are the
stored records whose point lies in a member rect, in key order, and its
over-read is the count of records whose key lies in a scan run and
whose point lies in no member rect.  The oracle here finds both with
``Rect.contains`` over every stored point, and takes the scan runs from
the run construction and gap merging of ``repro.core.runs``, not from a
plan or its positions.
"""

import zlib

import numpy as np
import pytest

from repro.api import Query
from repro.core.runs import merge_runs_with_gaps, query_runs
from repro.curves import make_curve
from repro.geometry import Rect
from repro.index import SFCIndex

#: ``(curve, dim, side)``: 2-d at side 64 and 3-d at side 16.
CASES = [
    ("onion", 2, 64),
    ("hilbert", 2, 64),
    ("zorder", 2, 64),
    ("rowmajor", 2, 64),
    ("onion", 3, 16),
    ("zorder", 3, 16),
]
GAPS = (1, 4, 32, 500)
POINTS = 3000
QUERIES = 6  # single rects, and as many two-rect unions


def _rect(rng, dim, side):
    lo = rng.integers(0, side, size=dim)
    hi = np.minimum(lo + rng.integers(0, side // 2, size=dim), side - 1)
    return Rect(tuple(int(v) for v in lo), tuple(int(v) for v in hi))


def _oracle(curve, points, keys, rects, gap):
    """The payloads a query over ``rects`` returns, in key order, and
    its over-read, from the points themselves."""
    runs = sorted(run for rect in rects for run in query_runs(curve, rect))
    scan_runs = merge_runs_with_gaps(merge_runs_with_gaps(runs, 0), gap)
    starts = [start for start, _ in scan_runs]
    ends = [end for _, end in scan_runs]
    first = np.searchsorted(starts, keys, side="right") - 1
    scanned = (first >= 0) & (keys <= np.asarray(ends)[np.maximum(first, 0)])
    inside = np.asarray(
        [any(rect.contains(point) for rect in rects) for point in points]
    )
    # bulk_load keeps arrival order among equal keys
    returned = sorted(np.flatnonzero(inside).tolist(), key=lambda i: (keys[i], i))
    return returned, int(np.count_nonzero(scanned & ~inside))


@pytest.mark.parametrize("name, dim, side", CASES)
def test_over_read_matches_the_point_oracle(name, dim, side):
    rng = np.random.default_rng(zlib.crc32(f"{name}-{dim}".encode()))
    curve = make_curve(name, side, dim)
    points = [tuple(int(c) for c in p) for p in rng.integers(0, side, size=(POINTS, dim))]
    keys = np.asarray([curve.index(point) for point in points])
    store = SFCIndex(curve, page_capacity=8)
    store.bulk_load(points, payloads=range(POINTS))
    store.flush()
    singles = [[_rect(rng, dim, side)] for _ in range(QUERIES)]
    unions = [[_rect(rng, dim, side), _rect(rng, dim, side)] for _ in range(QUERIES)]
    merged = 0
    for gap in GAPS:
        for rects in singles + unions:
            context = f"{name} {dim}-d gap {gap} {rects}"
            query = Query.union_of(rects).hint(gap_tolerance=gap)
            returned, over_read = _oracle(curve, points, keys, rects, gap)
            result = store.execute(query)
            assert [r.payload for r in result.records] == returned, context
            assert result.over_read == over_read, context
            cursor = store.cursor(query)
            assert [r.payload for r in cursor.fetchall()] == returned, context
            assert cursor.stats.over_read == over_read, context
            merged += over_read > 0
    assert merged  # some gaps held records
