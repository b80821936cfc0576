#!/usr/bin/env python3
"""Steadiness and determinism checks for the benchmark.

Run from the repository root::

    # run-to-run spread: quartile distance / median of each end-to-end metric
    python3 perfbench/check.py spread --workload scan_cold --seeds 1-10

    # exact counts repeat across runs of one seed, on every given seed
    python3 perfbench/check.py determinism --workload durable_churn --seeds 7,1001

Runs are sequential subprocesses of ``perfbench/run.py`` (each waited
for); ``--seconds`` defaults to ``run_seconds`` from ``BENCHMARK.json``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path
from typing import Dict, List, Tuple

ROOT = Path(__file__).resolve().parent.parent

#: Counts that must repeat exactly for one seed: the workload's op-stream
#: digest plus the per-layer counts the traced run derives from it.
EXACT = (
    "planner.runs_per_plan",
    "executor.pages_per_query",
    "disk.seeks_per_query",
    "wal.bytes_per_op",
    "recover.frames_replayed",
)


def _seeds(text: str) -> List[int]:
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def _run(workload: str, seed: int, seconds: int, trace: int) -> Tuple[List[str], dict]:
    cmd = [
        sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload", workload,
        "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace),
    ]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, check=True)
    lines = proc.stdout.strip().splitlines()
    return lines, json.loads(lines[-1])


def spread(args, spec) -> int:
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    values: Dict[str, List[float]] = {name: [] for name in bounds}
    for seed in _seeds(args.seeds):
        lines, result = _run(args.workload, seed, args.seconds, 0)
        if not result["correct"]:
            print(f"seed {seed}: incorrect ({result['failed']}/{result['attempted']} failed)")
            return 1
        printed = {f[0]: f[1] for f in (line.split() for line in lines) if len(f) > 1}
        for name in bounds:
            values[name].append(float(printed[name]))
        print(f"seed {seed}: " + " ".join(f"{n}={v[-1]:.5g}" for n, v in values.items()))
    worst = 0.0
    for name, vals in values.items():
        q1, med, q3 = statistics.quantiles(vals, n=4)
        share = (q3 - q1) / med
        worst = max(worst, share / bounds[name]) if name != "setup_s" else worst
        print(f"{name:<16} median {med:12.6g}  iqr/median {share:7.4f}  bound {bounds[name]}")
    print(f"largest spread as a share of its bound (setup_s excluded): {worst:.3f}")
    return 0


def determinism(args, spec) -> int:
    ok = True
    for seed in _seeds(args.seeds):
        seen = []
        for _ in range(2):
            lines, _ = _run(args.workload, seed, args.seconds, 1)
            counts = {}
            for line in lines:
                fields = line.split()
                if line.startswith("# workload"):
                    counts["op_stream_sha256"] = line.rsplit("=", 1)[1]
                elif fields and fields[0] in EXACT:
                    counts[fields[0]] = fields[1]
            seen.append(counts)
        same = seen[0] == seen[1]
        ok = ok and same
        print(f"seed {seed}: {'repeats' if same else 'DIFFERS'} {json.dumps(seen[0])}")
        if not same:
            print(f"  second run: {json.dumps(seen[1])}")
    return 0 if ok else 1


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("mode", choices=("spread", "determinism"))
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", required=True, help="a-b range or comma list")
    parser.add_argument("--seconds", type=int, default=spec["run_seconds"])
    args = parser.parse_args()
    return (spread if args.mode == "spread" else determinism)(args, spec)


if __name__ == "__main__":
    sys.exit(main())
