"""Durability roundtrip: WAL + checkpoint recovery equals the live store.

The durable tier's contract is behavioural, not byte-level: a store
recovered from its write-ahead log and last checkpoint must hold the
same records *and* answer range queries with identical I/O accounting
(seeks, pages, over-read) as the store that wrote the log.  This
experiment drives the same churned history — bulk load, inserts,
deletes, an online curve migration — through a durable single and a
durable sharded store, then:

* recovers each from disk and diffs a probe workload's records + I/O
  against the live store (the **roundtrip** column);
* reports the WAL the history produced (frames, bytes) and how much of
  it recovery replayed beyond the checkpoint;
* takes a compacting checkpoint and recovers again: the rotated log
  must replay **zero** frames, because the page images carry the state.

The acceptance claim is every roundtrip column reading ``equal`` and
the post-compaction replay count reading 0.
"""

from __future__ import annotations

import tempfile
from pathlib import Path

import numpy as np

from ..curves import make_curve
from ..geometry import Rect
from ..index import SFCIndex, ShardedSFCIndex
from ..storage import recover, scan_wal
from .config import Scale, get_scale
from .report import ExperimentResult

__all__ = ["run"]

#: Full-grid universes stay small enough to bulk-load at any scale.
_MAX_SIDE = 16
_PAGE_CAPACITY = 4
_NUM_SHARDS = 3


def _churn(store, side: int, count: int, rng) -> None:
    """Bulk load the grid, then a deterministic insert/delete churn
    ending in an online curve migration: every logged op kind of both
    stores but the sharded store's rebalance.  (A flush logs nothing:
    the page layout is derived from the records and the curve.)"""
    store.bulk_load([(x, y) for x in range(side) for y in range(side)])
    for i in range(count):
        point = (int(rng.integers(0, side)), int(rng.integers(0, side)))
        store.insert(point, f"churn-{i}")
        if i % 3 == 0:
            store.delete(point, f"churn-{i}")
    store.migrate_to(make_curve("hilbert", side, 2))


def _probe_signature(store, side: int):
    """Records plus per-probe I/O accounting from a parked head."""
    store.flush()
    store.disk.reset_stats()
    probes = []
    for rect in (
        Rect.from_origin((0, 0), (side, side)),
        Rect.from_origin((1, 1), (side // 2, side // 2)),
        Rect.from_origin((side // 2, 0), (side // 4, side)),
    ):
        result = store.range_query(rect, gap_tolerance=2)
        probes.append(
            (
                [(r.point, r.payload) for r in result.records],
                result.seeks,
                result.pages_read,
                result.over_read,
            )
        )
    return len(store), store.curve, probes


def run(scale: Scale = None) -> ExperimentResult:
    """Regenerate the durability roundtrip table."""
    scale = scale or get_scale()
    side = min(scale.side_2d, _MAX_SIDE)
    count = min(scale.queries_2d, 48)
    rows = []
    for kind in ("single", "sharded"):
        rng = np.random.default_rng(scale.seed + 29)
        with tempfile.TemporaryDirectory(prefix="repro-persist-") as tmp:
            root = Path(tmp) / kind
            curve = make_curve("onion", side, 2)
            if kind == "single":
                store = SFCIndex(
                    curve, page_capacity=_PAGE_CAPACITY, durable_path=root
                )
            else:
                store = ShardedSFCIndex(
                    curve,
                    num_shards=_NUM_SHARDS,
                    page_capacity=_PAGE_CAPACITY,
                    durable_path=root,
                )
            _churn(store, side, count, rng)
            live = _probe_signature(store, side)

            scan = scan_wal(store.durability.wal.path)
            recovered = recover(root)
            replayed = recovered.durability.last_recovery.frames_replayed
            roundtrip = (
                "equal" if _probe_signature(recovered, side) == live else "DIFFER"
            )

            recovered.checkpoint(compact=True)
            recovered.durability.close()
            compacted = recover(root)
            replayed_after = compacted.durability.last_recovery.frames_replayed
            compact_roundtrip = (
                "equal"
                if _probe_signature(compacted, side) == live
                else "DIFFER"
            )
            compacted.durability.close()

            rows.append(
                (
                    kind,
                    live[0],
                    len(scan.frames),
                    scan.valid_size,
                    replayed,
                    roundtrip,
                    replayed_after,
                    compact_roundtrip,
                )
            )

    return ExperimentResult(
        experiment="persistence",
        title=(
            f"durable WAL + checkpoint roundtrip, side {side}, "
            f"{count} churn ops + migration (scale={scale.name})"
        ),
        headers=[
            "store",
            "records",
            "wal frames",
            "wal bytes",
            "replayed",
            "roundtrip",
            "replayed after compact",
            "compact roundtrip",
        ],
        rows=rows,
        notes=[
            "roundtrip diffs recovered records AND per-probe (seeks, pages, "
            "over-read) against the live store",
            "acceptance: every roundtrip column reads 'equal' and the "
            "compacted log replays 0 frames",
        ],
    )
