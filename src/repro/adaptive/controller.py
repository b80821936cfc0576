"""The adaptive control loop: observe → detect → migrate.

:class:`AdaptiveController` wires the three control-plane pieces over one
serving index: the index's :class:`~repro.adaptive.WorkloadRecorder`
(installed at index construction — the executors report to it), a
:class:`~repro.adaptive.DriftDetector` over the candidate curves, and an
:class:`~repro.adaptive.OnlineMigrator` that re-keys the index when
drift is confirmed.

The loop is *pull-based*: call :meth:`maybe_adapt` from wherever pacing
makes sense — after every batch, from a cron, from a serving-thread
hook.  It is O(1) when no check is due, runs one incremental re-score
when a check is due, and performs the (expensive) migration only when
the detector flags drift.  Every decision is kept in :attr:`events` so
an operator can audit why the index is on the curve it is on.
"""

from __future__ import annotations

import threading
from collections import deque
from dataclasses import dataclass
from typing import Deque, Optional, Sequence, Tuple

from ..curves.base import SpaceFillingCurve
from ..devtools.annotations import guarded_by
from ..errors import InvalidQueryError
from ..obs.events import EVENTS
from ..obs.metrics import METRICS
from .drift import DriftDetector, DriftReport
from .migrator import MigrationReport, OnlineMigrator
from .recorder import WorkloadRecorder

__all__ = ["AdaptationEvent", "AdaptiveController"]

_CHECKS = METRICS.counter("repro_adaptive_checks_total", "drift checks run")
_MIGRATIONS = METRICS.counter(
    "repro_adaptive_migrations_total", "migrations performed by the control loop"
)
_EVENTS_DROPPED = METRICS.counter(
    "repro_adaptive_events_dropped_total",
    "decisions evicted from a controller's bounded audit log",
)


@dataclass(frozen=True)
class AdaptationEvent:
    """One control-loop decision: a drift check, maybe a migration."""

    report: DriftReport
    #: The migration performed in response, or None (no drift / auto off).
    migration: Optional[MigrationReport]

    def render(self) -> str:
        """Human-readable event (drift report + migration outcome)."""
        parts = [self.report.render()]
        if self.migration is not None:
            parts.append(self.migration.render())
        return "\n".join(parts)


class AdaptiveController:
    """Drives drift checks and migrations for one serving index.

    Parameters
    ----------
    index:
        An :class:`~repro.index.spatial.SFCIndex` or
        :class:`~repro.index.sharded.ShardedSFCIndex` constructed with a
        ``recorder`` (the controller reads the index's recorder; it does
        not install one — executors bind the recorder at flush time, so
        it must exist from the start).
    candidates:
        Curves the index may migrate to (same side/dim as the index).
    detector:
        Drift detector; defaults to one over ``candidates`` with the
        stock thresholds.
    migrator:
        Migration engine; defaults to a stock :class:`OnlineMigrator`.
    auto_migrate:
        When True (default), a drift verdict triggers the migration
        immediately; when False the controller only records the report
        (operator-in-the-loop mode — migrate explicitly via
        :meth:`migrate_to_best`).
    reset_recorder_on_migrate:
        When True (default), the recorder is cleared after a cutover so
        the next era's shape mix and its event count start clean.
    event_log_size:
        Most recent decisions retained in :attr:`events` (the audit log
        is bounded, so a long-lived controller never grows without
        limit).
    """

    def __init__(
        self,
        index,
        candidates: Sequence[SpaceFillingCurve],
        detector: Optional[DriftDetector] = None,
        migrator: Optional[OnlineMigrator] = None,
        auto_migrate: bool = True,
        reset_recorder_on_migrate: bool = True,
        event_log_size: int = 256,
    ):
        recorder = getattr(index, "recorder", None)
        if recorder is None:
            raise InvalidQueryError(
                "index has no WorkloadRecorder; construct it with recorder=..."
            )
        for candidate in candidates:
            if candidate.side != index.curve.side or candidate.dim != index.curve.dim:
                raise InvalidQueryError(
                    f"candidate {candidate!r} does not match the index universe"
                )
        self._index = index
        self._recorder: WorkloadRecorder = recorder
        self._detector = detector or DriftDetector(candidates)
        self._migrator = migrator or OnlineMigrator()
        self._auto_migrate = auto_migrate
        self._reset_recorder = reset_recorder_on_migrate
        if event_log_size < 1:
            raise InvalidQueryError(
                f"event_log_size must be >= 1, got {event_log_size}"
            )
        # guarded-by: _loop_lock
        self._events: Deque[AdaptationEvent] = deque(maxlen=event_log_size)
        # Decisions evicted once the audit log wraps — never silent:
        # the counter (and the unified obs stream, which every decision
        # is bridged into) outlive the bounded ring.
        self._events_dropped = 0  # guarded-by: _loop_lock
        # One check/migration at a time; serving threads calling
        # maybe_adapt concurrently must not race a double migration.
        self._loop_lock = threading.Lock()

    @property
    def index(self):
        """The serving index under adaptive control."""
        return self._index

    @property
    def recorder(self) -> WorkloadRecorder:
        """The index's live telemetry."""
        return self._recorder

    @property
    def detector(self) -> DriftDetector:
        """The drift detector pacing the checks."""
        return self._detector

    @property
    def migrator(self) -> OnlineMigrator:
        """The migration engine."""
        return self._migrator

    @property
    def events(self) -> Tuple[AdaptationEvent, ...]:
        """The retained decisions (up to ``event_log_size``), oldest first."""
        with self._loop_lock:
            return tuple(self._events)

    @property
    def events_dropped(self) -> int:
        """Decisions evicted from :attr:`events` since construction.

        Non-zero means :attr:`events` is a *suffix* of the decision
        history — consult the unified obs stream (`repro events`) or
        the ``repro_adaptive_events_dropped_total`` counter for the
        loss, never assume the log is complete.
        """
        with self._loop_lock:
            return self._events_dropped

    @property
    def last_report(self) -> Optional[DriftReport]:
        """The most recent drift report, or None before the first check."""
        with self._loop_lock:
            return self._events[-1].report if self._events else None

    @guarded_by("_loop_lock")
    def _run_check_locked(self, force_migrate: bool) -> AdaptationEvent:
        """One check → (maybe) migrate → event, under the loop lock.

        ``force_migrate`` migrates to the winner regardless of the drift
        verdict and the ``auto_migrate`` setting; otherwise migration
        requires both a drift verdict and auto mode.
        """
        report = self._detector.check(self._recorder, self._index.curve)
        migration = None
        if force_migrate or (report.drifted and self._auto_migrate):
            migration = self._migrator.migrate(self._index, report.best.curve)
            if migration.migrated and self._reset_recorder:
                self._recorder.clear()
        event = AdaptationEvent(report=report, migration=migration)
        if len(self._events) == self._events.maxlen:
            # The ring is about to evict its oldest decision: count the
            # loss instead of hiding it (the bug this replaces).
            self._events_dropped += 1
            _EVENTS_DROPPED.inc()
        self._events.append(event)
        _CHECKS.inc()
        if migration is not None and migration.migrated:
            _MIGRATIONS.inc()
        # Bridge every decision into the unified obs stream, which has
        # its own (counted) eviction policy and a CLI tail.
        EVENTS.emit(
            "adaptation",
            "migrated to {}".format(migration.new_curve.name)
            if migration is not None and migration.migrated
            else "checked (no migration)",
            drifted=report.drifted,
            current_curve=self._index.curve.name,
            best_curve=report.best.curve.name,
            migrated=migration is not None and migration.migrated,
        )
        return event

    def maybe_adapt(self) -> Optional[AdaptationEvent]:
        """Run the control loop once: check if due, migrate if drifted.

        Returns the event when a check ran (drifted or not), None when no
        check was due.  Safe to call from many serving threads; only one
        check/migration runs at a time.
        """
        with self._loop_lock:
            if not self._detector.should_check(self._recorder):
                return None
            return self._run_check_locked(force_migrate=False)

    def check_now(self) -> AdaptationEvent:
        """Force a drift check (and migration, when auto) regardless of pacing."""
        with self._loop_lock:
            return self._run_check_locked(force_migrate=False)

    def migrate_to_best(self) -> AdaptationEvent:
        """Check now and migrate to the winner even below the regret threshold."""
        with self._loop_lock:
            return self._run_check_locked(force_migrate=True)
