"""Durable-tier benchmarks, with a JSON artifact.

Three costs of durability, tracked across PRs in
``benchmarks/BENCH_persistence.json``:

* **WAL append throughput** — logical ops per second into the
  write-ahead log, buffered (``sync=False``) and with an fsync per
  commit (``sync=True``): the price of the WAL-before-apply invariant;
* **recovery time vs log length** — wall clock for ``recover()`` as the
  un-checkpointed WAL suffix grows, with the replayed frame counts that
  drive it;
* **checkpoint cost** — wall clock to write page images + manifest and
  rotate the log, and the (now constant-size) recovery that buys.

Shape assertions stick to frame counts and record equality; wall-clock
numbers land in the artifact, not in asserts, so the suite stays stable
on slow machines.
"""

import json
import time
from pathlib import Path

import pytest

from repro.curves import make_curve
from repro.experiments import persistence as persistence_experiment
from repro.index import SFCIndex
from repro.storage import WriteAheadLog, recover

from _latency import summarize_latencies

BENCH_JSON_PATH = Path(__file__).resolve().parent / "BENCH_persistence.json"

SIDE = 16
PAGE_CAPACITY = 8
BUFFERED_APPENDS = 2048
FSYNC_APPENDS = 256
LOG_LENGTHS = (64, 256, 1024)


def _op(i):
    return ("insert", (i % SIDE, (i // SIDE) % SIDE), i)


def _seed_store(root, count):
    store = SFCIndex(
        make_curve("onion", SIDE, 2),
        page_capacity=PAGE_CAPACITY,
        durable_path=root,
        durable_sync=False,
    )
    for i in range(count):
        store.insert(_op(i)[1], i)
    store.durability.close()


@pytest.fixture(scope="module")
def persistence_records(tmp_path_factory):
    """Append throughput + recovery/checkpoint timings, written to the artifact."""
    record = {"side": SIDE, "page_capacity": PAGE_CAPACITY}

    base = tmp_path_factory.mktemp("wal-append")
    for label, sync, count in (
        ("buffered", False, BUFFERED_APPENDS),
        ("fsync", True, FSYNC_APPENDS),
    ):
        wal = WriteAheadLog(base / f"{label}.log", sync=sync)
        laps = []
        t0 = time.perf_counter()
        for i in range(count):
            lap0 = time.perf_counter()
            wal.append(_op(i))
            laps.append(time.perf_counter() - lap0)
        elapsed = time.perf_counter() - t0
        wal.close()
        record[f"wal_append_{label}"] = {
            "appends": count,
            "bytes": wal.size,
            "wall_seconds": round(elapsed, 6),
            "ops_per_second": round(count / elapsed, 1),
            **summarize_latencies(laps, prefix="append_wall"),
        }

    recovery = []
    for count in LOG_LENGTHS:
        root = tmp_path_factory.mktemp(f"recover-{count}") / "d"
        _seed_store(root, count)
        t0 = time.perf_counter()
        recovered = recover(root)
        elapsed = time.perf_counter() - t0
        report = recovered.durability.last_recovery
        recovered.durability.close()
        recovery.append(
            {
                "logged_ops": count,
                "frames_replayed": report.frames_replayed,
                "records": report.records,
                "recovery_seconds": round(elapsed, 6),
            }
        )
    record["recovery_vs_log_length"] = recovery

    root = tmp_path_factory.mktemp("checkpoint") / "d"
    _seed_store(root, LOG_LENGTHS[-1])
    store = recover(root)
    t0 = time.perf_counter()
    manifest = store.checkpoint(compact=True)
    checkpoint_elapsed = time.perf_counter() - t0
    store.durability.close()
    t0 = time.perf_counter()
    compacted = recover(root)
    recover_elapsed = time.perf_counter() - t0
    after = compacted.durability.last_recovery
    compacted.durability.close()
    record["checkpoint"] = {
        "records": manifest.record_count,
        "pages": len(manifest.page_index),
        "checkpoint_seconds": round(checkpoint_elapsed, 6),
        "recovery_seconds_after": round(recover_elapsed, 6),
        "frames_replayed_after": after.frames_replayed,
    }

    BENCH_JSON_PATH.write_text(json.dumps([record], indent=2) + "\n")
    print(f"\n[persistence benchmark written to {BENCH_JSON_PATH}]")
    return record


# ----------------------------------------------------------------------
# Acceptance
# ----------------------------------------------------------------------
def test_wal_append_throughput_is_recorded(persistence_records):
    for label in ("wal_append_buffered", "wal_append_fsync"):
        sample = persistence_records[label]
        assert sample["ops_per_second"] > 0
        assert sample["bytes"] > 0


def test_recovery_replay_scales_with_the_log(persistence_records):
    """Replayed frames track the logged suffix exactly: each logged op,
    never more (no double apply)."""
    samples = persistence_records["recovery_vs_log_length"]
    assert [s["logged_ops"] for s in samples] == list(LOG_LENGTHS)
    for sample in samples:
        assert sample["frames_replayed"] == sample["logged_ops"]
        assert sample["records"] == sample["logged_ops"]


def test_checkpoint_makes_recovery_log_free(persistence_records):
    checkpoint = persistence_records["checkpoint"]
    assert checkpoint["records"] == LOG_LENGTHS[-1]
    assert checkpoint["pages"] > 0
    assert checkpoint["frames_replayed_after"] == 0


def test_bench_json_is_machine_readable(persistence_records):
    (record,) = json.loads(BENCH_JSON_PATH.read_text())
    assert record == persistence_records


# ----------------------------------------------------------------------
# Wall-clock history
# ----------------------------------------------------------------------
def test_bench_wal_append(benchmark, tmp_path):
    """Buffered append of one logical op (the per-mutation WAL tax)."""
    wal = WriteAheadLog(tmp_path / "bench.log", sync=False)
    counter = iter(range(10**9))

    benchmark(lambda: wal.append(_op(next(counter))))
    wal.close()


def test_bench_recover_churned_store(benchmark, tmp_path_factory):
    """Full recovery of a store with an un-checkpointed WAL suffix."""
    root = tmp_path_factory.mktemp("bench-recover") / "d"
    _seed_store(root, 256)

    def run():
        store = recover(root)
        assert len(store) == 256
        store.durability.close()

    benchmark.pedantic(run, rounds=3)


@pytest.mark.bench_experiment
def test_bench_persistence_experiment(benchmark, scale, reports):
    """The durability roundtrip experiment: recovered == live, twice."""
    result = benchmark.pedantic(
        persistence_experiment.run, args=(scale,), rounds=1
    )
    reports.append(result.render())
    for row in result.rows:
        roundtrip, replayed_after, compact_roundtrip = row[5], row[6], row[7]
        assert roundtrip == "equal"
        assert replayed_after == 0
        assert compact_roundtrip == "equal"
