"""Sharded serving benchmarks, with a JSON artifact.

Two acceptance claims for the scatter–gather layer, measured on a
fig7-style workload (random-corner rectangles over a uniformly loaded
index):

* **transparency is free of I/O regressions**: the sharded batch's
  canonical seeks/pages/records are *identical* to the single index's
  at every shard count — sharding never changes what the workload
  reads;
* **throughput scales with shard workers**: the simulated batch
  latency (per-shard scan work scattered over the workers, plus the
  per-shard fan-out penalty) drops monotonically as workers grow, and
  the simulated throughput at the full worker count clearly beats one
  worker.

Timings and the scaling curve land in ``benchmarks/BENCH_sharded.json``
so CI uploads them as an artifact next to ``BENCH_sweep.json`` and the
trajectory is tracked across PRs.
"""

import json
import time
from pathlib import Path

import numpy as np
import pytest

from repro.curves import make_curve
from repro.experiments import sharded_io
from repro.geometry import Rect
from repro.index import SFCIndex, ShardedSFCIndex

from _latency import summarize_latencies

BENCH_JSON_PATH = Path(__file__).resolve().parent / "BENCH_sharded.json"

SIDE = 64
NUM_POINTS = 5000
NUM_RECTS = 400
NUM_SHARDS = 8
WORKER_COUNTS = (1, 2, 4, 8)


def _points():
    rng = np.random.default_rng(23)
    return [tuple(map(int, p)) for p in rng.integers(0, SIDE, size=(NUM_POINTS, 2))]


def _corner_rects(count=NUM_RECTS, seed=29):
    rng = np.random.default_rng(seed)
    a = rng.integers(0, SIDE, size=(count, 2))
    b = rng.integers(0, SIDE, size=(count, 2))
    return [
        Rect(tuple(map(int, np.minimum(x, y))), tuple(map(int, np.maximum(x, y))))
        for x, y in zip(a, b)
    ]


def _build_sharded():
    index = ShardedSFCIndex(
        make_curve("onion", SIDE, 2),
        num_shards=NUM_SHARDS,
        page_capacity=8,
    )
    index.bulk_load(_points())
    index.flush()
    return index


@pytest.fixture(scope="module")
def rects():
    return _corner_rects()


@pytest.fixture(scope="module")
def single_index():
    index = SFCIndex(make_curve("onion", SIDE, 2), page_capacity=8)
    index.bulk_load(_points())
    index.flush()
    return index


@pytest.fixture(scope="module")
def sharded_records(rects, single_index):
    """The scaling curve + transparency checks, written to the artifact."""
    baseline = single_index.range_query_batch(rects)
    index = _build_sharded()
    batch = index.range_query_batch(rects)
    # Per-query wall latency of individual scatter-gather scans (the
    # batch above amortizes planning; this is the interactive path).
    laps = []
    for rect in rects[:100]:
        lap0 = time.perf_counter()
        index.range_query(rect)
        laps.append(time.perf_counter() - lap0)
    latency = summarize_latencies(laps, prefix="query_wall")
    records = []
    for workers in WORKER_COUNTS:
        sim_ms = batch.parallel_cost(workers=workers)
        records.append(
            {
                "curve": "onion",
                "side": SIDE,
                "num_shards": NUM_SHARDS,
                "workers": workers,
                "queries": len(rects),
                "total_seeks": batch.total_seeks,
                "total_pages": batch.total_pages_read,
                "identical_to_unsharded": (
                    batch.total_seeks == baseline.total_seeks
                    and batch.total_pages_read == baseline.total_pages_read
                    and batch.total_records == baseline.total_records
                ),
                "avg_fan_out": round(batch.total_fan_out / len(rects), 3),
                "sim_batch_ms": round(sim_ms, 2),
                "sim_throughput_qps": round(len(rects) / (sim_ms / 1000.0), 1),
                **latency,
            }
        )
    BENCH_JSON_PATH.write_text(json.dumps(records, indent=2) + "\n")
    print(f"\n[sharded benchmark written to {BENCH_JSON_PATH}]")
    return records


# ----------------------------------------------------------------------
# Acceptance
# ----------------------------------------------------------------------
def test_sharded_batch_is_transparent(sharded_records):
    """Identical I/O profile to the single index at the full shard count."""
    for record in sharded_records:
        assert record["identical_to_unsharded"], record


def test_throughput_scales_with_workers(sharded_records):
    """Simulated batch latency drops (throughput rises) with workers."""
    qps = [r["sim_throughput_qps"] for r in sharded_records]
    assert qps == sorted(qps), qps  # monotone in workers
    assert qps[-1] > 1.5 * qps[0], qps  # full fan-out clearly beats 1 worker


def test_transparency_across_shard_counts(rects, single_index):
    """Every shard count 1..8 reads exactly what the single index reads."""
    sample = rects[:100]
    baseline = single_index.range_query_batch(sample)
    for num_shards in range(1, 9):
        index = ShardedSFCIndex(
            make_curve("onion", SIDE, 2), num_shards=num_shards, page_capacity=8
        )
        index.bulk_load(_points())
        index.flush()
        batch = index.range_query_batch(sample)
        assert batch.total_seeks == baseline.total_seeks
        assert batch.total_pages_read == baseline.total_pages_read
        assert batch.total_records == baseline.total_records


def test_bench_json_is_machine_readable(sharded_records):
    data = json.loads(BENCH_JSON_PATH.read_text())
    assert data == sharded_records
    for record in data:
        assert record["sim_batch_ms"] > 0
        assert record["sim_throughput_qps"] > 0


# ----------------------------------------------------------------------
# Wall-clock history
# ----------------------------------------------------------------------
def test_bench_sharded_batch_inline_filtering(benchmark, rects):
    index = _build_sharded()
    benchmark(index.range_query_batch, rects[:100])


def test_bench_sharded_point_queries(benchmark, rects):
    index = _build_sharded()
    hot = rects[:50]
    benchmark(lambda: [index.range_query(r) for r in hot])


@pytest.mark.bench_experiment
def test_bench_sharded_experiment(benchmark, scale, reports):
    """The sharded serving experiment: fig7 workloads scattered over shards."""
    result = benchmark.pedantic(
        sharded_io.run, args=(scale,), kwargs={"dim": 2}, rounds=1
    )
    reports.append(result.render())
    assert all(flag == "yes" for flag in result.column("same as unsharded"))
    speedups = result.column("speedup")
    assert max(speedups) > 1.0  # scattering buys simulated latency somewhere