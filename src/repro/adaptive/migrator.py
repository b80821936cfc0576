"""Online curve migration: re-key everything, then cut over in one epoch.

When the drift detector names a better curve, the data still lives in
pages packed in *old*-curve key order.  :class:`OnlineMigrator` moves it:

1. **snapshot** — the index hands over a consistent ``(version,
   records)`` view of its contents (taken under the store mutex,
   walking the key intervals in key order);
2. **re-key** — the records' cells are mapped to keys under the target
   curve in bounded ``batch_size`` chunks (one vectorized ``index_many``
   call per chunk); queries keep serving from the old layout the whole
   time — nothing the serving path reads has been touched;
3. **cutover** — the index atomically installs the re-keyed records: new
   B+-tree(s), a shadow :class:`~repro.engine.plan.PageLayout` packed
   onto the same append-only page store (old pages stay readable for
   in-flight queries), new planner and executor, epoch bumped, plan
   cache and buffer pool invalidated.  The cutover *refuses* if writes
   landed since the snapshot (the version moved) and the migrator
   retries; the final attempt holds the store mutex across
   snapshot → re-key → cutover, so the loop always terminates — at the
   price of briefly blocking writers.

Because the shadow layout is packed by the very
:func:`~repro.index.spatial.pack_layout` a fresh bulk load flushes
through, a migrated index is *observationally identical* to an index
bulk-loaded on the target curve from scratch — same records, seeks and
pages for every query — which is the differential guarantee
``tests/adaptive/test_migration.py`` proves, sharded included.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, List, Optional, Tuple

import numpy as np

from ..curves.base import SpaceFillingCurve
from ..errors import InvalidQueryError
from ..engine.executor import Record
from ..obs.events import EVENTS
from ..obs.metrics import METRICS
from ..obs.trace import span as _obs_span

__all__ = ["MigrationReport", "OnlineMigrator"]

_MIGRATIONS = METRICS.counter("repro_migrations_total", "curve migrations completed")
_MIGRATION_BATCHES = METRICS.counter(
    "repro_migration_batches_total", "bounded re-key chunks processed"
)

#: Progress hook: ``on_batch(records_rekeyed, records_total)`` after each
#: chunk — tests use it to issue queries mid-migration.
BatchHook = Callable[[int, int], None]


@dataclass(frozen=True)
class MigrationReport:
    """What one migration did."""

    old_curve: SpaceFillingCurve
    new_curve: SpaceFillingCurve
    #: False when the target already was the incumbent (no-op).
    migrated: bool
    #: Records re-keyed into the new layout.
    records: int
    #: Bounded re-key chunks processed.
    batches: int
    #: The chunk size used.
    batch_size: int
    #: Snapshot/cutover attempts (> 1 means writers raced the migration).
    attempts: int
    #: Pages the shadow layout wrote to the shared store.
    pages_written: int
    #: Index epoch before and after the cutover.
    epoch_before: int
    epoch_after: int

    def render(self) -> str:
        """Human-readable migration summary."""
        if not self.migrated:
            return (
                f"migration skipped: index already on {self.new_curve.name}"
            )
        return (
            f"migrated {self.records} records "
            f"{self.old_curve.name} -> {self.new_curve.name} in "
            f"{self.batches} batch(es) of <= {self.batch_size}, "
            f"{self.pages_written} shadow pages, "
            f"{self.attempts} attempt(s), "
            f"epoch {self.epoch_before} -> {self.epoch_after}"
        )


class OnlineMigrator:
    """Re-keys an index onto a new curve with bounded batches and epoch cutover.

    Works on any :class:`~repro.api.store.SpatialStore` — the base
    implements the migration protocol (``_migration_snapshot()``,
    ``_migration_cutover()``, the re-entrant ``_mutex`` and ``epoch``)
    once for :class:`~repro.index.spatial.SFCIndex` and
    :class:`~repro.index.sharded.ShardedSFCIndex` alike: the cutover
    re-routes every record through the store's shard map and repacks
    the shared page store across interval boundaries, so shard
    transparency survives the migration.

    Parameters
    ----------
    batch_size:
        Records re-keyed per chunk (bounds the per-step work and the
        granularity of ``on_batch`` progress callbacks).
    max_attempts:
        Optimistic snapshot/cutover attempts before the final, lock-held
        attempt (which cannot lose the race but blocks writers).
    on_batch:
        Progress hook called after every chunk with
        ``(records_rekeyed, records_total)``.
    """

    def __init__(
        self,
        batch_size: int = 4096,
        max_attempts: int = 3,
        on_batch: Optional[BatchHook] = None,
    ):
        if batch_size < 1:
            raise InvalidQueryError(f"batch_size must be >= 1, got {batch_size}")
        if max_attempts < 1:
            raise InvalidQueryError(f"max_attempts must be >= 1, got {max_attempts}")
        self._batch_size = int(batch_size)
        self._max_attempts = int(max_attempts)
        self._on_batch = on_batch

    @property
    def batch_size(self) -> int:
        """Records re-keyed per chunk."""
        return self._batch_size

    def _rekey(
        self,
        target: SpaceFillingCurve,
        entries: List[Tuple[int, Record]],
        quiet: bool = False,
    ) -> Tuple[List[Tuple[int, Record]], int]:
        """Key every snapshot record under ``target`` in bounded chunks.

        Returns the ``(new_key, record)`` pairs sorted ascending (stable,
        so same-key records keep their snapshot order) and the number of
        chunks processed.  ``quiet`` suppresses the progress hook — the
        lock-held final pass must not re-enter the index through a
        caller callback (a same-thread write would dirty the version the
        held lock exists to freeze).
        """
        keyed: List[Tuple[int, Record]] = []
        total = len(entries)
        batches = 0
        for start in range(0, total, self._batch_size):
            chunk = entries[start : start + self._batch_size]
            with _obs_span("migration_batch", kind="migration") as sp:
                cells = np.asarray([record.point for _, record in chunk], dtype=np.int64)
                keys = target.index_many(cells)
                keyed.extend(
                    (int(key), record) for key, (_, record) in zip(keys, chunk)
                )
                batches += 1
                sp.set("batch", batches)
                sp.set("records", len(chunk))
            _MIGRATION_BATCHES.inc()
            if self._on_batch is not None and not quiet:
                self._on_batch(min(start + self._batch_size, total), total)
        keyed.sort(key=lambda pair: pair[0])
        return keyed, batches

    def migrate(self, index, target: SpaceFillingCurve) -> MigrationReport:
        """Move ``index`` onto ``target``, serving the old layout until cutover."""
        incumbent = index.curve
        if target.side != incumbent.side or target.dim != incumbent.dim:
            raise InvalidQueryError(
                f"target curve {target!r} does not match the index universe "
                f"(side {incumbent.side}, dim {incumbent.dim})"
            )
        if target == incumbent:
            return MigrationReport(
                old_curve=incumbent,
                new_curve=target,
                migrated=False,
                records=0,
                batches=0,
                batch_size=self._batch_size,
                attempts=0,
                pages_written=0,
                epoch_before=index.epoch,
                epoch_after=index.epoch,
            )

        epoch_before = index.epoch
        pages_before = index.disk.stats.pages_written
        attempts = 0
        with _obs_span("migrate", kind="migration") as sp:
            sp.set("from", incumbent.name)
            sp.set("to", target.name)
            # Optimistic attempts: snapshot and re-key without blocking
            # writers; the cutover refuses when the version moved.
            while attempts < self._max_attempts - 1:
                attempts += 1
                version, entries = index._migration_snapshot()
                keyed, batches = self._rekey(target, entries)
                if index._migration_cutover(target, keyed, version):
                    sp.set("records", len(keyed))
                    sp.set("attempts", attempts)
                    return self._report_done(
                        MigrationReport(
                            old_curve=incumbent,
                            new_curve=target,
                            migrated=True,
                            records=len(keyed),
                            batches=batches,
                            batch_size=self._batch_size,
                            attempts=attempts,
                            pages_written=index.disk.stats.pages_written - pages_before,
                            epoch_before=epoch_before,
                            epoch_after=index.epoch,
                        )
                    )
            # Final attempt: hold the store mutex across snapshot, re-key
            # and cutover — writers wait, the version cannot move.  Progress
            # hooks are suppressed (quiet) so no callback can write through
            # the re-entrant lock and dirty the frozen version.
            attempts += 1
            with index._mutex:
                version, entries = index._migration_snapshot()
                keyed, batches = self._rekey(target, entries, quiet=True)
                if not index._migration_cutover(target, keyed, version):
                    raise AssertionError(
                        "cutover failed under the store mutex"
                    )  # pragma: no cover
            sp.set("records", len(keyed))
            sp.set("attempts", attempts)
            return self._report_done(
                MigrationReport(
                    old_curve=incumbent,
                    new_curve=target,
                    migrated=True,
                    records=len(keyed),
                    batches=batches,
                    batch_size=self._batch_size,
                    attempts=attempts,
                    pages_written=index.disk.stats.pages_written - pages_before,
                    epoch_before=epoch_before,
                    epoch_after=index.epoch,
                )
            )

    @staticmethod
    def _report_done(report: MigrationReport) -> MigrationReport:
        """Count and announce a completed migration (single funnel)."""
        _MIGRATIONS.inc()
        EVENTS.emit(
            "migration",
            f"{report.old_curve.name} -> {report.new_curve.name}",
            records=report.records,
            batches=report.batches,
            attempts=report.attempts,
            epoch_after=report.epoch_after,
        )
        return report
