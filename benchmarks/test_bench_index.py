"""End-to-end index benchmarks: range-query latency and seek counts.

Ties the paper's clustering story to the storage layer: on a large
(near-cube) region scan the onion-keyed index must need fewer seeks than
the Hilbert- or Z-keyed one.
"""

import gc

import numpy as np
import pytest

from repro.curves import make_curve
from repro.geometry import Rect
from repro.index import SFCIndex

SIDE = 64
LARGE_RECT = Rect((2, 3), (58, 59))
SMALL_RECT = Rect((10, 10), (17, 17))


def _build(name):
    index = SFCIndex(make_curve(name, SIDE, 2), page_capacity=8)
    rng = np.random.default_rng(17)
    points = rng.integers(0, SIDE, size=(5000, 2))
    index.bulk_load(map(tuple, points))
    index.flush()
    return index


@pytest.fixture(scope="module")
def indexes():
    return {name: _build(name) for name in ("onion", "hilbert", "zorder")}


@pytest.mark.parametrize("name", ["onion", "hilbert", "zorder"])
def test_bench_large_range_query(benchmark, indexes, name):
    result = benchmark(indexes[name].range_query, LARGE_RECT)
    assert result.records


@pytest.mark.parametrize("name", ["onion", "hilbert", "zorder"])
def test_bench_small_range_query(benchmark, indexes, name):
    benchmark(indexes[name].range_query, SMALL_RECT)


def test_onion_needs_fewest_seeks_on_large_scans(indexes):
    seeks = {name: idx.range_query(LARGE_RECT).seeks for name, idx in indexes.items()}
    assert seeks["onion"] < seeks["hilbert"]
    assert seeks["onion"] < seeks["zorder"]


def test_bench_bulk_build(benchmark):
    rng = np.random.default_rng(23)
    points = [tuple(p) for p in rng.integers(0, SIDE, size=(2000, 2))]

    def build():
        index = SFCIndex(make_curve("onion", SIDE, 2), page_capacity=8)
        index.bulk_load(points)
        index.flush()
        return index

    benchmark(build)


#: The bulk-load store, ``scan_cold``'s shape: 50,000 uniform onion
#: points at side 256, 64 per page.
LOAD_SIDE = 256
LOAD_POINTS = 50_000


def test_bench_bulk_load(benchmark):
    """A 50,000-point bulk load into a fresh store, then its flush: the
    set-up every workload pays, and recovery's load of a checkpoint.  At
    this size the tree fill and the collector show, which 2,000 points
    do not.  Each round must leave a layout whose key column is its
    records' curve keys, in order (CONTRIBUTING invariant 14), holding
    every point, and the collector as the round found it."""
    curve = make_curve("onion", LOAD_SIDE, 2)
    rng = np.random.default_rng(41)
    points = list(map(tuple, rng.integers(0, LOAD_SIDE, size=(LOAD_POINTS, 2)).tolist()))

    def load():
        enabled = gc.isenabled()
        index = SFCIndex(curve, page_capacity=64)
        index.bulk_load(points)
        index.flush()
        assert gc.isenabled() is enabled
        return index

    index = benchmark.pedantic(load, rounds=10, iterations=1)
    assert gc.isenabled()
    assert len(index) == LOAD_POINTS
    layout = index.page_layout
    assert len(layout.records) == LOAD_POINTS
    loaded = [record.point for record in layout.records]
    assert layout.keys.tolist() == curve.keys_of(loaded).tolist()
    assert sorted(loaded) == sorted(points)


#: The merge-flush store: 20,000 onion points at side 256, 64 per page.
MERGE_SIDE = 256
MERGE_POINTS = 20_000


def test_bench_merge_flush(benchmark):
    """A flush that merges one read's worth of writes into the sorted
    columns.  Each round notes 80 inserts and 20 deletes, untimed, and
    times the ``flush()`` that merges their keys' buckets into about
    20,000 records and packs the layout.  Afterwards the layout's key
    column must be its records' curve keys, in order (CONTRIBUTING
    invariant 14)."""
    curve = make_curve("onion", MERGE_SIDE, 2)
    index = SFCIndex(curve, page_capacity=64)
    rng = np.random.default_rng(31)
    live = list(map(tuple, rng.integers(0, MERGE_SIDE, size=(MERGE_POINTS, 2)).tolist()))
    index.bulk_load(live)
    index.flush()

    def writes():
        for point in map(tuple, rng.integers(0, MERGE_SIDE, size=(80, 2)).tolist()):
            index.insert(point)
            live.append(point)
        for i in sorted(rng.choice(len(live), size=20, replace=False), reverse=True):
            assert index.delete(live.pop(i))

    benchmark.pedantic(index.flush, setup=writes, rounds=30, iterations=1)
    layout = index.page_layout
    assert len(layout.records) == len(live) == len(index)
    points = [record.point for record in layout.records]
    assert layout.keys.tolist() == curve.keys_of(points).tolist()
