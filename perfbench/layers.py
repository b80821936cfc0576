"""Per-layer metrics computed from the traced run's spans.

Every metric is ``name -> (value, unit, note)``; ``value`` is None where
the layer did no work on the workload (for example the WAL on the scan
workloads).  Self times come from :mod:`tracing`; counts come from the
return values the shims note (runs, seeks, records, fan-out, page sizes).
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from stats import median
from tracing import Span, group

Metric = Tuple[Optional[float], str, str]

_PAGE_READS = ("disk.read", "buffer.read")
_EXECUTES = ("executor.execute", "scatter.execute")
_WRITES = ("api.insert", "api.delete")


def _p50(spans: List[Span], attr: str, scale: float) -> Optional[float]:
    return median([getattr(s, attr) for s in spans]) * scale if spans else None


def _total(spans: List[Span], attr: str, scale: float) -> Optional[float]:
    return sum(getattr(s, attr) for s in spans) * scale if spans else None


def _ratio(num: float, den: float) -> Optional[float]:
    return num / den if den else None


def _issued_reads(spans: List[Span]) -> List[Span]:
    """Page reads a caller issued (a pool miss's nested disk read excluded)."""
    return [s for s in spans if s.name in _PAGE_READS and s.parent != "buffer.read"]


def layer_metrics(
    spans: List[Span],
    loop_wall: float,
    n_ops: int,
    n_writes: int,
    checkpoint_records: int,
) -> Dict[str, Metric]:
    loop = [s for s in spans if s.phase == "loop"]
    by = group(loop)
    every = group(spans)
    bulk_keying = [
        s for s in spans
        if s.phase == "setup" and s.name == "curves.index_many" and s.parent == "store.bulk_load"
    ]
    get = lambda table, name: table.get(name, [])  # noqa: E731

    executes = get(by, "executor.execute") + get(by, "scatter.execute")
    exec_reads = [s for s in _issued_reads(loop) if s.parent in _EXECUTES]
    returned = sum(s.extra[2] for s in executes)
    plans = get(by, "planner.plan")
    lookups = get(by, "plan_cache.get")
    pool_reads = get(by, "buffer.read")
    pool_misses = [s for s in get(by, "disk.read") if s.parent == "buffer.read"]
    knn = get(by, "knn.search")
    cursors = get(by, "api.cursor")
    cursor_reads = [s for s in _issued_reads(loop) if s.root == "api.cursor"]
    appends = [s for s in get(by, "wal.append") if s.root in _WRITES]
    in_append = lambda name: [  # noqa: E731
        s for s in get(by, name) if s.parent == "wal.append" and s.root in _WRITES
    ]
    wal_writes = in_append("fileops.write")
    ckpt_bytes = sum(s.extra for s in get(by, "fileops.write") if s.root == "api.checkpoint")
    attributed = sum(s.self_time for s in loop)

    m: Dict[str, Metric] = {
        "curves.index_many_ms": (
            _total(bulk_keying, "dur", 1e3), "ms",
            f"index_many inside set-up bulk loads (n={len(bulk_keying)})"),
        "curves.index_us_p50": (
            _p50(get(by, "curves.index"), "dur", 1e6), "us",
            f"single-key index calls in the loop (n={len(get(by, 'curves.index'))})"),
        "planner.plan_self_ms_p50": (
            _p50(plans, "self_time", 1e3), "ms",
            f"Planner.plan minus curve kernels (n={len(plans)})"),
        "planner.plans_per_op": (len(plans) / n_ops, "count", "plans built per op"),
        "planner.runs_per_plan": (
            _ratio(sum(s.extra[0] for s in executes), len(executes)), "count",
            f"scan runs per executed plan, the clustering number (n={len(executes)})"),
        "plan_cache.hit_rate": (
            _ratio(sum(1 for s in lookups if s.extra), len(lookups)), "ratio",
            f"base: {len(lookups)} lookups"),
        "executor.execute_self_ms_p50": (
            _p50(get(by, "executor.execute"), "self_time", 1e3), "ms",
            "Executor.execute minus its page reads"),
        "executor.pages_per_query": (
            _ratio(len(exec_reads), len(executes)), "count",
            "pages requested per plan execution (single or scatter-gather executor)"),
        "executor.records_examined_per_returned": (
            _ratio(sum(s.extra for s in exec_reads), returned), "ratio",
            f"records on pages read per record returned (base: {returned} returned)"),
        "scatter.execute_self_ms_p50": (
            _p50(get(by, "scatter.execute"), "self_time", 1e3), "ms",
            "ScatterGatherExecutor.execute minus its page reads"),
        "scatter.fan_out_mean": (
            _ratio(sum(s.extra[3] for s in get(by, "scatter.execute")),
                   len(get(by, "scatter.execute"))), "count",
            "shards contacted per sharded execution"),
        "disk.read_self_ms_total": (
            _total(get(by, "disk.read"), "self_time", 1e3), "ms",
            f"SimulatedDisk.read (n={len(get(by, 'disk.read'))})"),
        "disk.seeks_per_query": (
            _ratio(sum(s.extra[1] for s in executes), len(executes)), "count",
            "disk seeks charged per plan execution"),
        "buffer.hit_rate": (
            _ratio(len(pool_reads) - len(pool_misses), len(pool_reads)), "ratio",
            f"base: {len(pool_reads)} pool reads"),
        "buffer.read_self_ms_total": (
            _total(pool_reads, "self_time", 1e3), "ms", "BufferPool.read minus disk reads"),
        "knn.self_ms_p50": (
            _p50(knn, "self_time", 1e3), "ms",
            f"knn_search minus its plan/execute spans (n={len(knn)})"),
        "knn.expansions_per_query": (
            _ratio(sum(s.extra[0] for s in knn), len(knn)), "count", "box expansions"),
        "knn.records_scanned_per_neighbor": (
            _ratio(sum(s.extra[1] for s in knn), sum(s.extra[2] for s in knn)), "ratio",
            "records pulled per neighbour returned"),
        "cursor.self_ms_p50": (
            _p50(cursors, "self_time", 1e3), "ms",
            f"cursor open+drain minus plan and page-read spans (n={len(cursors)})"),
        "cursor.pages_per_stream": (
            _ratio(len(cursor_reads), len(cursors)), "count", "pages pulled per limited cursor"),
        "store.flush_ms_p50": (
            _p50(get(every, "store.flush"), "dur", 1e3), "ms",
            f"SpatialStore.flush, set-up and loop (n={len(get(every, 'store.flush'))})"),
        "store.flushes": (
            float(len(get(every, "store.flush"))), "count", "flushes in set-up and loop"),
        "bplustree.insert_us_p50": (
            _p50(get(every, "bplustree.insert"), "dur", 1e6), "us",
            f"BPlusTree.insert, set-up and loop (n={len(get(every, 'bplustree.insert'))})"),
        "wal.encode_us_p50": (
            _p50(in_append("wal.encode_op"), "dur", 1e6), "us", "encode_op per write"),
        "wal.write_us_p50": (
            _p50(wal_writes, "dur", 1e6), "us", "FileOps.write per write"),
        "wal.fsync_us_p50": (
            _p50(in_append("fileops.fsync"), "dur", 1e6), "us", "FileOps.fsync per write"),
        "wal.bytes_per_op": (
            _ratio(sum(s.extra for s in wal_writes), len(appends)), "bytes",
            f"frame bytes per logged write (n={len(appends)})"),
        "wal.fsyncs_per_write": (
            _ratio(len(in_append("fileops.fsync")), n_writes), "count", "fsync policy check"),
        "checkpoint.bytes_per_record": (
            _ratio(ckpt_bytes, checkpoint_records), "bytes",
            f"page-file + manifest bytes per checkpointed record (base: {checkpoint_records})"),
        "trace.unattributed_frac": (
            (loop_wall - attributed) / loop_wall, "ratio",
            "traced loop wall not covered by any span's self time"),
    }
    return m


def recover_metrics(spans: List[Span], wall: float, frames: int) -> Dict[str, Metric]:
    """Phase split of one traced ``recover()``."""
    by = group(spans, phase="recover")
    scan = _total(by.get("recover.scan_wal", []), "dur", 1.0) or 0.0
    load = _total(by.get("recover.load_pages", []), "dur", 1.0) or 0.0
    bulk = _total(by.get("store.bulk_load", []), "dur", 1.0) or 0.0
    return {
        "recover.scan_ms": (scan * 1e3, "ms", "scan_wal"),
        "recover.load_pages_ms": (load * 1e3, "ms", "load_pages"),
        "recover.bulk_load_ms": (bulk * 1e3, "ms", "bulk load of the checkpoint records"),
        "recover.replay_ms": (
            (wall - scan - load - bulk) * 1e3, "ms", "recover() minus the phases above"),
        "recover.frames_replayed": (float(frames), "count", "WAL frames after the checkpoint"),
    }


def breakdown(spans: List[Span], loop_wall: float) -> List[Tuple[str, float]]:
    """``(layer, self seconds)`` over the traced loop, largest first, plus
    the unattributed remainder, summing to ``loop_wall``."""
    totals: Dict[str, float] = {}
    for s in spans:
        if s.phase == "loop":
            totals[s.name] = totals.get(s.name, 0.0) + s.self_time
    rows = sorted(totals.items(), key=lambda item: -item[1])
    rows.append(("(unattributed)", loop_wall - sum(totals.values())))
    return rows
