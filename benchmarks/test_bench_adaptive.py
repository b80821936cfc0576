"""Adaptive control-plane benchmarks, with a JSON artifact.

Two acceptance claims for the adaptive subsystem, measured on the
rows→cubes drifting trace:

* **migration is fast**: the online re-key + cutover moves records at a
  healthy simulated-store throughput (records/second wall clock,
  tracked in the artifact so regressions show across PRs);
* **migration pays**: after the cutover the adaptive index spends
  strictly fewer seeks on the drifted tail than the static
  incumbent-curve baseline.

Numbers land in ``benchmarks/BENCH_adaptive.json`` so CI uploads them
next to ``BENCH_sweep.json`` / ``BENCH_sharded.json``.
"""

import json
import time
from pathlib import Path

import numpy as np
import pytest

from repro.adaptive import (
    AdaptiveController,
    DriftDetector,
    OnlineMigrator,
    WorkloadRecorder,
)
from repro.curves import make_curve
from repro.experiments import adaptive as adaptive_experiment
from repro.geometry import Rect
from repro.index import SFCIndex

from _latency import summarize_latencies

BENCH_JSON_PATH = Path(__file__).resolve().parent / "BENCH_adaptive.json"

SIDE = 32
PAGE_CAPACITY = 4
NUM_QUERIES = 90
CUBE = 20


def _points():
    return [(x, y) for x in range(SIDE) for y in range(SIDE)]


def _trace(count=NUM_QUERIES, seed=43):
    rng = np.random.default_rng(seed)
    rects = []
    for i in range(count):
        if i < count // 3:
            y = int(rng.integers(0, SIDE))
            rects.append(Rect((0, y), (SIDE - 1, y)))
        else:
            ox, oy = (int(v) for v in rng.integers(0, SIDE - CUBE + 1, size=2))
            rects.append(Rect.from_origin((ox, oy), (CUBE, CUBE)))
    return rects


def _build(curve_name, recorder=None):
    index = SFCIndex(
        make_curve(curve_name, SIDE, 2),
        page_capacity=PAGE_CAPACITY,
        recorder=recorder,
    )
    index.bulk_load(_points())
    index.flush()
    return index


@pytest.fixture(scope="module")
def adaptive_records():
    """Drifting-trace replay + migration throughput, written to the artifact."""
    static = _build("rowmajor")
    recorder = WorkloadRecorder(half_life=8.0)
    adaptive = _build("rowmajor", recorder=recorder)
    candidates = [make_curve(n, SIDE, 2) for n in ("rowmajor", "onion", "hilbert")]
    controller = AdaptiveController(
        adaptive,
        candidates,
        detector=DriftDetector(
            candidates, regret_threshold=0.15, min_observations=8, check_interval=4
        ),
        migrator=OnlineMigrator(batch_size=256),
    )

    cutover_at = None
    migration_wall = None
    migration = None
    static_seeks, adaptive_seeks = [], []
    query_laps = []
    for i, rect in enumerate(_trace()):
        static_seeks.append(static.range_query(rect).seeks)
        lap0 = time.perf_counter()
        adaptive_seeks.append(adaptive.range_query(rect).seeks)
        query_laps.append(time.perf_counter() - lap0)
        t0 = time.perf_counter()
        event = controller.maybe_adapt()
        elapsed = time.perf_counter() - t0
        if event and event.migration and cutover_at is None:
            cutover_at = i + 1
            migration_wall = elapsed
            migration = event.migration

    assert cutover_at is not None, "the drifting trace must trigger a cutover"
    tail_static = sum(static_seeks[cutover_at:])
    tail_adaptive = sum(adaptive_seeks[cutover_at:])
    record = {
        "side": SIDE,
        "page_capacity": PAGE_CAPACITY,
        "queries": NUM_QUERIES,
        "cutover_after_query": cutover_at,
        "migrated_records": migration.records,
        "migration_batches": migration.batches,
        "migration_wall_seconds": round(migration_wall, 6),
        "migration_records_per_second": round(
            migration.records / migration_wall, 1
        ),
        "tail_queries": NUM_QUERIES - cutover_at,
        "tail_seeks_static": tail_static,
        "tail_seeks_adaptive": tail_adaptive,
        "tail_seek_reduction": round(tail_static / tail_adaptive, 3),
        "target_curve": adaptive.curve.name,
        **summarize_latencies(query_laps, prefix="query_wall"),
    }
    BENCH_JSON_PATH.write_text(json.dumps([record], indent=2) + "\n")
    print(f"\n[adaptive benchmark written to {BENCH_JSON_PATH}]")
    return record


# ----------------------------------------------------------------------
# Acceptance
# ----------------------------------------------------------------------
def test_migration_reduces_tail_seeks(adaptive_records):
    """Post-cutover, the adaptive index strictly beats the static baseline."""
    assert adaptive_records["tail_seeks_adaptive"] < adaptive_records[
        "tail_seeks_static"
    ]
    assert adaptive_records["tail_seek_reduction"] > 1.0


def test_migration_throughput_is_healthy(adaptive_records):
    """Re-keying the whole store completes at a sane simulated throughput."""
    assert adaptive_records["migrated_records"] == SIDE * SIDE
    assert adaptive_records["migration_records_per_second"] > 1000


def test_cutover_lands_inside_the_trace(adaptive_records):
    assert adaptive_records["cutover_after_query"] < NUM_QUERIES
    assert adaptive_records["target_curve"] == "onion"


def test_bench_json_is_machine_readable(adaptive_records):
    (record,) = json.loads(BENCH_JSON_PATH.read_text())
    assert record == adaptive_records


# ----------------------------------------------------------------------
# Wall-clock history
# ----------------------------------------------------------------------
def test_bench_migration_wall_clock(benchmark):
    target = make_curve("onion", SIDE, 2)

    def setup():
        return (_build("rowmajor"),), {}

    def run(index):
        assert index.migrate_to(target, batch_size=256).migrated

    benchmark.pedantic(run, setup=setup, rounds=3)


def test_bench_drift_check_is_cheap(benchmark):
    """A steady-state drift check is a dictionary walk, not a sweep."""
    recorder = WorkloadRecorder()
    for _ in range(64):
        recorder.record_executed((CUBE, CUBE))
    candidates = [make_curve(n, SIDE, 2) for n in ("rowmajor", "onion", "hilbert")]
    detector = DriftDetector(candidates, min_observations=1, check_interval=1)
    incumbent = candidates[0]
    detector.check(recorder, incumbent)  # warm the (curve, shape) memo
    benchmark(detector.check, recorder, incumbent)


@pytest.mark.bench_experiment
def test_bench_adaptive_experiment(benchmark, scale, reports):
    """The adaptive experiment: rows→cubes drift, migrated mid-trace."""
    result = benchmark.pedantic(
        adaptive_experiment.run, args=(scale,), kwargs={"dim": 2}, rounds=1
    )
    reports.append(result.render())
    assert any("cutover" in note for note in result.notes)
    tail_rows = [row for row in result.rows if "drifted tail" in row[0]]
    assert tail_rows, "the trace must have a post-cutover tail"
    for row in tail_rows:
        static_seeks, adaptive_seeks = row[2], row[3]
        assert adaptive_seeks < static_seeks
