"""Durable store directories: WAL + checkpoints bound to a live store.

This module ties the two halves of the durability tier together:

* :class:`Durability` owns one durable directory — the live
  :class:`~repro.storage.wal.WriteAheadLog` plus the checkpoint
  generation counter — and is what a store's mutation path logs
  through (*WAL-before-apply*: the store appends the logical operation
  before touching its tree);
* :func:`recover` turns a durable directory back into a live store:
  load the committed manifest (if any), rebuild the store from its
  recorded construction parameters, bulk load the checkpointed page
  images, replay the WAL suffix through the store's *public* mutation
  methods — so replay re-keys points under exactly the curve the store
  held when each frame was written, including across
  ``migrate``/``rebalance`` frames — and only then truncate the WAL's
  torn tail, so a refusal leaves the directory as it found it.

Directory layout::

    manifest.json     committed root pointer (atomic rename target)
    wal-<G>.log       operation log opened at checkpoint generation G
    pages-<G>.bin     page images written by checkpoint generation G

A checkpoint either extends the current log (``compact=False`` — the
manifest just advances ``wal_offset``) or rotates to a fresh
generation-named log (``compact=True``).  Either way the manifest
rename is the single commit point: files of superseded generations are
unlinked only *after* it, so a crash anywhere in the protocol leaves a
directory that recovers to the previous checkpoint plus its intact
log.  The recovery guarantee — proven per kill point by the
crash-injection suite — is *recovery-equals-committed-prefix*: the
recovered store equals the pre-crash store after some prefix of its
operations containing every acknowledged one.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from functools import partial
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple, Union

from ..errors import InvalidQueryError, RecoveryError, StorageError
from ..obs.events import EVENTS
from ..obs.metrics import METRICS
from ..obs.trace import span as _obs_span
from .pagefile import (
    MANIFEST_NAME,
    CheckpointManifest,
    load_manifest,
    load_pages,
    wal_file_name,
    write_checkpoint,
)
from .wal import FileOps, WriteAheadLog, scan_wal

__all__ = ["Durability", "RecoveryReport", "recover"]

_CHECKPOINTS = METRICS.counter("repro_checkpoints_total", "checkpoints committed")
_CHECKPOINT_LATENCY = METRICS.histogram(
    "repro_checkpoint_latency_seconds", "wall time of write_checkpoint"
)
_RECOVERIES = METRICS.counter("repro_recoveries_total", "durable stores rebuilt by recover()")


@dataclass(frozen=True)
class RecoveryReport:
    """What :func:`recover` found and did in a durable directory."""

    #: The durable directory.
    root: Path
    #: Checkpoint generation recovery started from (0: no checkpoint).
    generation: int
    #: Records loaded from the checkpoint's page images.
    checkpoint_records: int
    #: WAL operations replayed after the checkpoint.
    frames_replayed: int
    #: Torn-tail bytes truncated from the WAL (0 on a clean shutdown).
    torn_bytes: int
    #: The WAL file replayed.
    wal_file: str
    #: Records in the recovered store.
    records: int


class Durability:
    """One durable directory bound to (at most) one live store.

    A store holding a ``Durability`` appends every mutation to its WAL
    before applying it and cuts checkpoints through
    :meth:`write_checkpoint`.  The object is handed to the store either
    at construction (``durable_path=``, via :meth:`initialize`) or by
    :func:`recover` (via :meth:`resume`).
    """

    def __init__(
        self,
        root: Union[str, Path],
        ops: Optional[FileOps] = None,
        sync: bool = True,
    ) -> None:
        self._root = Path(root)
        self._ops = ops if ops is not None else FileOps()
        self._sync = sync
        self._wal: Optional[WriteAheadLog] = None
        self._generation = 0
        #: Report of the :func:`recover` call that produced this
        #: binding, or None for a freshly initialized directory.
        self.last_recovery: Optional[RecoveryReport] = None

    @property
    def root(self) -> Path:
        """The durable directory."""
        return self._root

    @property
    def generation(self) -> int:
        """Checkpoint generation last committed (0: never checkpointed)."""
        return self._generation

    @property
    def wal(self) -> Optional[WriteAheadLog]:
        """The live operation log (None until initialize/resume)."""
        return self._wal

    def initialize(self, state: Dict[str, Any]) -> None:
        """Create a fresh durable directory for a brand-new store.

        Writes the header frame — ``state`` is the store's construction
        parameters, enough to rebuild it before any checkpoint exists —
        and always fsyncs it.  Refuses a directory that already holds a
        durable store: that one must go through :func:`recover`.
        """
        self._root.mkdir(parents=True, exist_ok=True)
        if (self._root / MANIFEST_NAME).exists() or any(self._root.glob("wal-*.log")):
            raise StorageError(
                f"{self._root} already holds a durable store; recover() it instead"
            )
        wal = WriteAheadLog(self._root / wal_file_name(0), self._ops, self._sync)
        wal.append(("header", state), sync=True)
        self._wal = wal
        self._generation = 0

    def resume(
        self,
        wal_path: Union[str, Path],
        generation: int,
        report: RecoveryReport,
    ) -> None:
        """Re-attach to a recovered directory's live WAL (recovery only)."""
        self._wal = WriteAheadLog(wal_path, self._ops, self._sync)
        self._generation = generation
        self.last_recovery = report

    def log(self, op: Tuple[Any, ...]) -> None:
        """Append one logical operation (fsynced when ``sync=True``)."""
        if self._wal is None:
            raise StorageError("durability is not initialized")
        self._wal.append(op)

    def write_checkpoint(
        self,
        records: Sequence[Tuple[Tuple[int, ...], Any]],
        state: Dict[str, Any],
        page_capacity: int,
        compact: bool = False,
    ) -> CheckpointManifest:
        """Materialize ``records`` as page images and commit the manifest.

        ``records`` must be the store's full record set in key order
        (what :meth:`~repro.api.store.SpatialStore._flush_entries`
        walks), cut here into ``page_capacity`` chunks so the images
        mirror the on-disk page layout.  With ``compact=True`` the log
        is rotated: a fresh generation-named WAL (header only) replaces
        the old one, which is unlinked after the manifest commit.
        Without it, the manifest simply advances the replay offset past
        everything already folded into the images.
        """
        if self._wal is None:
            raise StorageError("durability is not initialized")
        started = time.perf_counter()
        generation = self._generation + 1
        pages = [
            list(records[i : i + page_capacity])
            for i in range(0, len(records), page_capacity)
        ]
        with _obs_span("checkpoint", kind="storage") as sp:
            if compact:
                wal = WriteAheadLog(
                    self._root / wal_file_name(generation), self._ops, self._sync
                )
                wal.append(("header", state), sync=True)
            else:
                # Everything the manifest's offset claims durable must be
                # on stable storage before the rename can commit it.
                self._wal.sync()
                wal = self._wal
            manifest = write_checkpoint(
                self._root,
                self._ops,
                generation,
                pages,
                state,
                wal.path.name,
                wal.size,
            )
            # The rename committed; retire everything it no longer names.
            if wal is not self._wal:
                self._wal.close()
            self._wal = wal
            self._generation = generation
            self._sweep(keep_wal=wal.path.name, keep_pages=manifest.pages_file)
            sp.set("generation", generation)
            sp.set("records", len(records))
            sp.set("pages", len(pages))
            sp.set("compact", compact)
        _CHECKPOINTS.inc()
        _CHECKPOINT_LATENCY.observe(time.perf_counter() - started)
        EVENTS.emit(
            "checkpoint",
            f"generation {generation} committed",
            records=len(records),
            pages=len(pages),
            compact=compact,
        )
        return manifest

    def _sweep(self, keep_wal: str, keep_pages: str) -> None:
        """Unlink files of superseded generations (post-commit cleanup)."""
        for path in sorted(self._root.glob("wal-*.log")):
            if path.name != keep_wal:
                self._ops.unlink(path)
        for path in sorted(self._root.glob("pages-*.bin")):
            if path.name != keep_pages:
                self._ops.unlink(path)

    def close(self) -> None:
        """Close the live WAL's file handle."""
        if self._wal is not None:
            self._wal.close()


def _build_store(state: Dict[str, Any], extra: Dict[str, Any]):
    """Construct an empty store from a manifest/header ``state`` dict.

    A ``tree_order`` field, which older durable directories carry, is
    ignored.  A state the store's constructor refuses (a shard map that
    does not tile the key space, a page capacity below 1) raises
    :class:`RecoveryError`.
    """
    from ..curves.registry import make_curve

    try:
        kind = state["kind"]
        name, side, dim = state["curve"]
        curve = make_curve(str(name), int(side), int(dim))
        page_capacity = int(state["page_capacity"])
    except (KeyError, ValueError, TypeError) as exc:
        raise RecoveryError(f"unusable durable store state: {exc}") from exc
    if kind == "single":
        from ..index.spatial import SFCIndex

        build: Callable[..., Any] = SFCIndex
    elif kind == "sharded":
        from ..index.sharded import ShardedSFCIndex

        try:
            shards = [tuple(int(b) for b in bounds) for bounds in state["shards"]]
        except (KeyError, ValueError, TypeError) as exc:
            raise RecoveryError(f"unusable shard map in durable state: {exc}") from exc
        build = partial(ShardedSFCIndex, shards=shards)
    else:
        raise RecoveryError(f"unknown durable store kind {kind!r}")
    try:
        return build(curve, page_capacity=page_capacity, **extra)
    except InvalidQueryError as exc:
        raise RecoveryError(f"durable store state refused: {exc}") from exc


def _apply(store, op: Tuple[Any, ...]) -> bool:
    """Replay one WAL operation through the store's public surface.

    Returns False for frames that carry no mutation: the ``header`` and
    ``checkpoint`` bookkeeping frames, and the ``flush`` frames of logs
    written before flushes stopped being logged.  A flushed layout is
    derived state, packed again from the replayed records on the
    recovered store's first read.
    """
    kind = op[0]
    if kind in ("header", "checkpoint", "flush"):
        return False
    if kind == "insert":
        store.insert(op[1], op[2])
    elif kind == "bulk":
        pairs = op[1]
        store.bulk_load(
            [point for point, _ in pairs], [payload for _, payload in pairs]
        )
    elif kind == "delete":
        from ..api.store import ANY

        matcher = op[2]
        store.delete(op[1], ANY if matcher[0] == "any" else matcher[1])
    elif kind == "migrate":
        from ..curves.registry import make_curve

        store.migrate_to(make_curve(op[1], op[2], op[3]))
    elif kind == "rebalance":
        store.rebalance(op[1])
    else:
        raise RecoveryError(f"unknown WAL operation {kind!r}")
    return True


def recover(
    path: Union[str, Path],
    *,
    ops: Optional[FileOps] = None,
    sync: bool = True,
    **store_kwargs: Any,
):
    """Rebuild the store persisted in the durable directory at ``path``.

    The recovered store is live and durable: its ``Durability`` binding
    resumes appending to the same WAL, and
    ``store.durability.last_recovery`` reports what recovery found
    (checkpoint generation, frames replayed, torn bytes truncated).
    Extra keyword arguments (``buffer_pages``, ``cost_model``, …) are
    performance knobs forwarded to the store constructor; the durable
    state never records them because they do not affect contents.

    Raises :class:`~repro.errors.RecoveryError` when the directory
    holds no recoverable store — never for a torn WAL tail, which is
    truncated and reported instead.  The tail is truncated only after
    the store is rebuilt and the suffix replayed, so a refusal leaves
    the WAL as it found it.
    """
    file_ops = ops if ops is not None else FileOps()
    root = Path(path)
    manifest = load_manifest(root)
    if manifest is not None:
        wal_path = root / manifest.wal_file
        if not wal_path.exists():
            raise RecoveryError(
                f"manifest names missing WAL file {manifest.wal_file}"
            )
        start = manifest.wal_offset
        state: Optional[Dict[str, Any]] = manifest.state
        generation = manifest.generation
    else:
        wal_path = root / wal_file_name(0)
        if not wal_path.exists():
            raise RecoveryError(f"no durable store at {root}")
        start = 0
        state = None
        generation = 0
    scan = scan_wal(wal_path)
    if start > scan.valid_size:
        raise RecoveryError(
            f"checkpoint claims {start} durable WAL bytes but only "
            f"{scan.valid_size} are readable"
        )
    if state is None:
        if not scan.frames or scan.frames[0][1][0] != "header":
            raise RecoveryError(f"WAL at {wal_path} has no header frame")
        state = scan.frames[0][1][1]
    store = _build_store(state, store_kwargs)
    checkpoint_records = 0
    if manifest is not None:
        pages = load_pages(root, manifest)
        points = [point for page in pages for point, _ in page]
        payloads = [payload for page in pages for _, payload in page]
        if points:
            store.bulk_load(points, payloads)
        checkpoint_records = len(points)
    replayed = 0
    for end_offset, op in scan.frames:
        if end_offset <= start:
            continue
        if _apply(store, op):
            replayed += 1
    if scan.torn_bytes:
        file_ops.truncate(wal_path, scan.valid_size)
    durability = Durability(root, ops=file_ops, sync=sync)
    durability.resume(
        wal_path,
        generation,
        RecoveryReport(
            root=root,
            generation=generation,
            checkpoint_records=checkpoint_records,
            frames_replayed=replayed,
            torn_bytes=scan.torn_bytes,
            wal_file=wal_path.name,
            records=len(store),
        ),
    )
    store._attach_durability(durability)
    _RECOVERIES.inc()
    EVENTS.emit(
        "recovery",
        f"rebuilt store from {root}",
        generation=generation,
        checkpoint_records=checkpoint_records,
        frames_replayed=replayed,
        torn_bytes=scan.torn_bytes,
    )
    return store
