#!/usr/bin/env python3
"""Closed-loop store benchmark: end-to-end metrics, or a per-layer traced run.

Run from the repository root::

    python3 perfbench/run.py --workload scan_cold --seed 1 --seconds 10 --trace 0

``--trace 0`` builds the store several times (``setup_s`` is the median),
runs the workload's op stream untraced and reports the end-to-end metrics.
``--trace 1`` does the same and then repeats the run with span shims
installed around the layer entry points, reporting per-layer metrics and
the layer breakdown of the traced wall time.  Every op's output is checked
against a numpy oracle outside its timed interval.  Human-readable lines
name every metric with its unit; the last line is one JSON object whose
metrics are the ``end_to_end`` (``--trace 0``) or ``per_layer``
(``--trace 1``) names listed in ``BENCHMARK.json``.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import platform
import resource
import shutil
import sys
import tempfile
import time
from contextlib import nullcontext
from pathlib import Path
from typing import Dict, List, Optional, Tuple

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
_NULL = nullcontext()


def _import_repro():
    """Import the package from this checkout's ``src/`` (never elsewhere)."""
    package = SRC / "repro"
    if not (package / "__init__.py").is_file():
        raise SystemExit(f"perfbench: {package} not found; run from a full checkout")
    sys.path.insert(0, str(SRC))
    import repro

    if Path(repro.__file__).resolve().parent != package.resolve():
        raise SystemExit(f"perfbench: imported repro from {repro.__file__}, not {package}")
    return repro


# ----------------------------------------------------------------------
# Environment record
# ----------------------------------------------------------------------
def _git_commit() -> Optional[str]:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = ROOT / ".git" / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return None


def _src_digest() -> str:
    h = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        h.update(str(path.relative_to(SRC)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def _filesystem(path: Path) -> str:
    """Type of the mount holding ``path`` (longest matching mount point)."""
    best, kind = "", "unknown"
    try:
        mounts = Path("/proc/mounts").read_text().splitlines()
    except OSError:
        return kind
    target = str(path.resolve())
    for line in mounts:
        fields = line.split()
        if len(fields) >= 3:
            point = fields[1]
            inside = target == point or target.startswith(point.rstrip("/") + "/")
            if inside and len(point) >= len(best):
                best, kind = point, fields[2]
    return kind


def environment(work_dir: Path, durable: bool) -> Dict[str, object]:
    import numpy

    return {
        "commit": _git_commit(),
        "src_sha256": _src_digest(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": os.cpu_count(),
        "filesystem": _filesystem(work_dir),
        "fsync_policy": (
            "durable_sync=True: fsync on every logged op" if durable else "none (in-memory store)"
        ),
    }


# ----------------------------------------------------------------------
# One measured pass: set-up, closed loop, (durable) recovery
# ----------------------------------------------------------------------
class Pass:
    """Raw samples of one pass over the op stream."""

    def __init__(self) -> None:
        self.setup: List[float] = []
        self.latency: Dict[str, List[float]] = {}
        self.all_latency: List[float] = []
        self.attempted = 0
        self.failed = 0
        self.loop_wall = 0.0
        self.checkpoint_records = 0
        self.recover: List[float] = []
        self.frames_replayed: Optional[int] = None
        self.plans_distinct: Optional[int] = None
        self.pages: Optional[int] = None
        #: ops / summed latency of each round (the tracing-overhead base).
        self.round_rates: List[float] = []
        self.raw_latency: List[float] = []

    def fail(self, what: str) -> None:
        self.failed += 1
        if self.failed <= 5:
            print(f"perfbench: FAILED {what}", file=sys.stderr)

    @property
    def ops_per_s(self) -> float:
        return len(self.all_latency) / sum(self.all_latency)


def _check(store, oracle, op, out) -> bool:
    """Oracle verdict on one op's output (run outside the timed interval)."""
    from repro import Rect

    kind = op[0]
    if kind in ("range", "read"):
        if not oracle.range_ok(out.records, op[1]):
            return False
        if store.buffer_pool is not None:
            return True
        # Without a pool every page the plan spans reaches the disk.
        plan = store.planner.plan(Rect(*op[1]), layout=store.page_layout)
        return out.seeks + out.sequential_reads == plan.estimated_pages
    if kind == "knn":
        return oracle.knn_ok(out, op[1])
    if kind == "cursor":
        return oracle.cursor_ok(out, op[1])
    if kind == "insert":
        oracle.insert(op[1])
        return out is None
    if kind == "delete":
        return out is True and oracle.delete(op[1])
    if kind == "checkpoint":
        return out.record_count == int(oracle.grid.sum())
    return False


def measure(session, tracer=None) -> Pass:
    """Run the workload in rounds: each round builds a fresh store (timed
    set-up), runs the whole op stream, and for the durable workload closes
    and recovers the store.  An op's latency is its fastest round, which
    filters the slow phases a shared host imposes.  The traced pass runs
    one round."""
    from tracing import timing_file_ops
    from workloads import FAMILY, ROUNDS

    run = Pass()
    file_ops = timing_file_ops(tracer) if tracer is not None and session.workload.durable else None
    best: List[Optional[float]] = [None] * len(session.inputs.ops)
    raw: List[Optional[float]] = [None] * len(session.inputs.ops)
    for _ in range(1 if tracer is not None else ROUNDS):
        _round(session, tracer, file_ops, run, best, raw)
    for op, latency, r in zip(session.inputs.ops, best, raw):
        if latency is not None:
            run.latency.setdefault(FAMILY[op[0]], []).append(latency)
            run.all_latency.append(latency)
            run.raw_latency.append(r)
    return run


def _round(session, tracer, file_ops, run: Pass, best, raw) -> None:
    from calibrate import HostSpeed
    from workloads import Oracle

    clock = time.perf_counter
    gc.collect()
    host = HostSpeed()
    if tracer is not None:
        tracer.phase, tracer.active = "setup", True
    started = clock()
    store = session.build(file_ops)
    run.setup.append((clock() - started) * host.factor)
    if tracer is not None:
        tracer.active = False
    run.plans_distinct = session.plans_distinct
    run.pages = store.page_layout.num_pages if store.page_layout is not None else None
    oracle = Oracle(session.inputs.points, session.curve)

    gc.collect()
    gc.freeze()
    gc.disable()
    outside = 0.0
    spent = 0.0
    done = 0
    loop_started = clock()
    try:
        if tracer is not None:
            tracer.phase, tracer.active = "loop", True
        for i, op in enumerate(session.inputs.ops):
            kind = op[0]
            run.attempted += 1
            root = tracer.span("api." + kind) if tracer is not None else _NULL
            started = clock()
            try:
                with root:
                    out = session.perform(store, op)
            except Exception as exc:  # an op that raises counts as failed
                run.fail(f"{kind} {op[1:]}: {exc!r}")
                continue
            measured = clock() - started
            elapsed = measured * host.factor
            aside = clock()
            host.spent(measured)
            spent += elapsed
            done += 1
            if raw[i] is None or measured < raw[i]:
                raw[i] = measured
            if best[i] is None or elapsed < best[i]:
                best[i] = elapsed
            if tracer is not None:
                tracer.active = False
            if not _check(store, oracle, op, out):
                run.fail(f"{kind} {op[1:]}: output differs from the oracle")
            if kind == "checkpoint":
                run.checkpoint_records += out.record_count
            if tracer is not None:
                tracer.active = True
            # Speed probes and oracle checks are not part of the traced wall.
            outside += clock() - aside
    finally:
        run.loop_wall = clock() - loop_started - outside
        run.round_rates.append(done / spent if spent else 0.0)
        if tracer is not None:
            tracer.active = False
        gc.enable()
        gc.unfreeze()
        gc.collect()

    if session.workload.durable:
        _recover(store, oracle, run, tracer, file_ops)
    else:
        session.discard(store)


def _recover(store, oracle, run: Pass, tracer, file_ops) -> None:
    """Close the store, time ``recover()`` of its directory and check that
    the recovered record multiset equals the live store's at close."""
    from repro import Query, Rect
    from repro.storage.durable import recover

    everything = Query.rect(Rect((0, 0), (255, 255)))
    # The stream ends on a read, so the layout is current: no flush is logged.
    live = store.execute(everything).records
    run.attempted += 1
    if not oracle.all_ok(live):
        run.fail("live store at close differs from the oracle")
    root = store.durability.root
    store.durability.close()
    gc.collect()
    if tracer is not None:
        tracer.phase, tracer.active = "recover", True
    started = time.perf_counter()
    recovered = recover(root, ops=file_ops)
    run.recover.append(time.perf_counter() - started)
    if tracer is not None:
        tracer.active = False
    run.frames_replayed = recovered.durability.last_recovery.frames_replayed
    run.attempted += 1
    if not oracle.all_ok(recovered.execute(everything).records):
        run.fail("recovered store differs from the live store at close")
    recovered.durability.close()
    shutil.rmtree(root, ignore_errors=True)


# ----------------------------------------------------------------------
# End-to-end metrics
# ----------------------------------------------------------------------
def end_to_end(run: Pass) -> Dict[str, Tuple[Optional[float], str, str]]:
    from stats import median, percentile, tail

    def p50(family: str):
        values = run.latency.get(family, [])
        note = f"n={len(values)}"
        return (median(values) * 1e3 if values else None, "ms", note)

    def high(family: str, wanted: float):
        values = run.latency.get(family, [])
        level, value = tail(values, wanted)
        if value is None:
            return (None, "ms", f"n={len(values)}: too few samples for a tail")
        note = f"p{level:g}, n={len(values)}"
        if level != wanted:
            note += f" (p{wanted:g} needs {int(10 / (1 - wanted / 100) + 0.5)})"
        return (value * 1e3, "ms", note)

    rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    m = {
        "setup_s": (median(run.setup), "s", f"median of {len(run.setup)} builds"),
        "ops_per_s": (
            run.ops_per_s, "1/s", f"{len(run.all_latency)} ops / their summed best latency"),
        "op_p50_ms": (percentile(run.all_latency, 50) * 1e3, "ms", f"all ops, n={len(run.all_latency)}"),
        "op_p90_ms": (percentile(run.all_latency, 90) * 1e3, "ms", f"all ops, n={len(run.all_latency)}"),
        "range_p50_ms": p50("range"),
        "range_p90_ms": high("range", 90.0),
        "range_p99_ms": high("range", 99.0),
        "knn_p50_ms": p50("knn"),
        "knn_p99_ms": high("knn", 99.0),
        "stream_p50_ms": p50("stream"),
        "stream_p99_ms": high("stream", 99.0),
        "write_p50_ms": p50("write"),
        "write_p99_ms": high("write", 99.0),
        "checkpoint_p50_ms": p50("checkpoint"),
        "recover_s": (
            median(run.recover) if run.recover else None, "s",
            f"median of {len(run.recover)} recoveries"),
        "error_rate": (
            run.failed / run.attempted, "ratio", f"{run.failed}/{run.attempted} ops failed"),
        "peak_rss_mb": (rss_kb / 1024.0, "MB", "ru_maxrss of the process"),
        "raw.ops_per_s": (
            len(run.raw_latency) / sum(run.raw_latency), "1/s",
            "ops_per_s from unscaled latencies (host speed not factored out)"),
    }
    return m


def _print_metrics(title: str, metrics) -> None:
    print(f"# {title}")
    for name, (value, unit, note) in metrics.items():
        shown = "n/a" if value is None else repr(value)
        print(f"{name:<40} {shown:>22} {unit:<6} {note}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    _import_repro()
    from layers import breakdown, layer_metrics, recover_metrics
    from stats import median
    from tracing import Tracer, install
    from workloads import PLAN_CACHE, WORKLOADS, Session

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}")
    workload = WORKLOADS[args.workload]
    inputs = workload.inputs(args.seed, args.seconds)
    work_dir = Path(tempfile.mkdtemp(prefix=".perfbench-", dir=ROOT))
    try:
        env = environment(work_dir, workload.durable)
        session = Session(workload, inputs, work_dir)
        plain = measure(session)
        traced = tracer = None
        if args.trace:
            tracer = Tracer()
            shims = install(tracer, type(session.curve))
            try:
                traced = measure(session, tracer)
            finally:
                shims.remove()
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)

    print("# env " + json.dumps(env, sort_keys=True))
    print(
        f"# workload {workload.name} seed={args.seed} ops={len(inputs.ops)} "
        f"points={len(inputs.points)} pages={plain.pages} "
        f"buffer_pages={session.buffer_pages} plans_distinct={plain.plans_distinct} "
        f"plan_cache={PLAN_CACHE} op_stream_sha256={inputs.digest()}"
    )
    why = {w["name"]: w["why"] for w in spec["workloads"]}
    print(f"# why: {why.get(workload.name, '')}")
    print("# round ops/s (untraced): " + " ".join(f"{r:.1f}" for r in plain.round_rates))
    e2e = end_to_end(plain)
    _print_metrics("end-to-end (untraced)", e2e)
    metrics = {name: (v, u) for name, (v, u, _) in e2e.items()}
    attempted, failed = plain.attempted, plain.failed
    if traced is not None:
        n_writes = len(traced.latency.get("write", []))
        layers = layer_metrics(
            tracer.spans, traced.loop_wall, len(traced.all_latency), n_writes,
            traced.checkpoint_records,
        )
        if traced.recover:
            layers.update(recover_metrics(tracer.spans, traced.recover[0], traced.frames_replayed))
        untraced = median(plain.round_rates)
        layers["trace.overhead_frac"] = (
            1.0 - traced.round_rates[0] / untraced, "ratio",
            f"traced {traced.round_rates[0]:.1f} vs median untraced round {untraced:.1f} ops/s")
        _print_metrics("per-layer (traced)", layers)
        print(f"# layer self time over the traced loop wall of {traced.loop_wall:.4f} s")
        for name, seconds in breakdown(tracer.spans, traced.loop_wall):
            print(f"{name:<40} {seconds * 1e3:>12.2f} ms {100 * seconds / traced.loop_wall:6.2f} %")
        metrics = {name: (v, u) for name, (v, u, _) in layers.items()}
        attempted += traced.attempted
        failed += traced.failed

    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    out = {}
    for entry in wanted:
        value, unit = metrics.get(entry["name"], (None, None))
        if value is None:
            raise SystemExit(f"perfbench: metric {entry['name']} was not measured")
        out[entry["name"]] = {"value": value, "unit": entry["unit"]}
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": out,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
