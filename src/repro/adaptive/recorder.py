"""Live query-shape telemetry: the data plane reports, the control plane reads.

A :class:`WorkloadRecorder` is the adaptive subsystem's only contact
with the serving path.  The planner calls :meth:`record_planned` for
every plan it builds, and the executor's one execution report calls
:meth:`record_executed` for every query executed or streamed; each call
is O(1) under one lock, so the hook is cheap enough to leave on in
production, with many client threads hammering one index.

Two views accumulate:

* a **ring buffer** of the most recent :class:`Observation` objects
  (shape, realized seeks/pages, over-read, buffer-pool cold misses),
  bounded by ``window`` — the raw trace for debugging and calibration;
* a **decayed shape histogram** — per-shape weights where an
  observation's weight decays by half every ``half_life`` events — the
  drift detector's input.  Decay is what makes the histogram *follow*
  the workload: after a rows→cubes shift, the row era fades at a known
  rate instead of anchoring the mix forever.

The decay is implemented with a growing per-event scale factor (new
events are worth more) rather than an O(shapes) rescan per event;
weights are renormalized when the scale overflows comfortable float
range, so recording stays O(1) amortized.
"""

from __future__ import annotations

import threading
from collections import deque
from dataclasses import dataclass
from typing import Deque, Dict, Optional, Tuple

from ..devtools.annotations import guarded_by
from ..errors import InvalidQueryError

__all__ = ["Observation", "WorkloadRecorder"]

#: A query shape: per-dimension side lengths of the rect.
Shape = Tuple[int, ...]

#: Renormalize the decay scale before it threatens float overflow.
_SCALE_LIMIT = 1e12

#: Drop histogram entries that decayed below this relative weight.
_WEIGHT_FLOOR = 1e-15

#: Cap on distinct shapes the auxiliary telemetry dicts (planned counts,
#: realized/estimated seek sums) track; beyond it the oldest-tracked
#: shape is evicted, so a long-lived recorder under maximally diverse
#: workloads stays bounded (the decayed histogram prunes itself via the
#: weight floor instead).
_MAX_TRACKED_SHAPES = 4096


@dataclass(frozen=True)
class Observation:
    """One executed query, as the recorder saw it."""

    shape: Shape
    #: Seeks the execution actually charged.
    seeks: int
    #: Total pages touched (seeks + sequential reads).
    pages: int
    #: Records returned.
    records: int
    #: Records scanned but discarded (gap-tolerance over-read).
    over_read: int = 0
    #: Buffer-pool misses during the execution — the *cold* seek story —
    #: or ``None`` when the index runs without a pool.
    cold_misses: Optional[int] = None


class WorkloadRecorder:
    """Thread-safe ring buffer + decayed shape histogram of live queries.

    Parameters
    ----------
    window:
        Ring-buffer capacity in observations (the raw trace).
    half_life:
        Events after which a recorded observation's histogram weight has
        halved; ``None`` disables decay (all history weighs equally).
    """

    def __init__(self, window: int = 1024, half_life: Optional[float] = 256.0):
        if window < 1:
            raise InvalidQueryError(f"window must be >= 1, got {window}")
        if half_life is not None and half_life <= 0:
            raise InvalidQueryError(
                f"half_life must be positive or None, got {half_life}"
            )
        self._lock = threading.Lock()
        self._ring: Deque[Observation] = deque(maxlen=window)  # guarded-by: _lock
        self._window = window
        self._half_life = half_life
        #: Per-event weight multiplier: each new event is worth
        #: ``2**(1/half_life)`` times the previous one, which is the same
        #: as decaying all old weights — without touching them.
        self._growth = 2.0 ** (1.0 / half_life) if half_life else 1.0
        self._scale = 1.0  # guarded-by: _lock
        self._weights: Dict[Shape, float] = {}  # guarded-by: _lock
        self._executed = 0  # guarded-by: _lock
        self._planned = 0  # guarded-by: _lock
        self._planned_shapes: Dict[Shape, int] = {}  # guarded-by: _lock
        self._estimated_seeks: Dict[Shape, float] = {}  # guarded-by: _lock
        self._realized_seeks: Dict[Shape, float] = {}  # guarded-by: _lock
        self._realized_counts: Dict[Shape, int] = {}  # guarded-by: _lock

    # ------------------------------------------------------------------
    # Hooks (called from the serving path)
    # ------------------------------------------------------------------
    def record_planned(self, plan) -> None:
        """Note a plan the planner built (shape + its predicted seeks).

        Planner events are informational — cached plans skip the planner
        entirely, so only executor events feed the drift histogram.
        """
        shape = tuple(plan.rect.lengths)
        estimated = float(plan.estimated_seeks)
        with self._lock:
            self._planned += 1
            self._planned_shapes[shape] = self._planned_shapes.get(shape, 0) + 1
            self._estimated_seeks[shape] = (
                self._estimated_seeks.get(shape, 0.0) + estimated
            )
            if len(self._planned_shapes) > _MAX_TRACKED_SHAPES:
                oldest = next(iter(self._planned_shapes))
                del self._planned_shapes[oldest]
                self._estimated_seeks.pop(oldest, None)

    def record_executed(
        self,
        shape: Tuple[int, ...],
        seeks: int,
        pages: int,
        records: int = 0,
        over_read: int = 0,
        cold_misses: Optional[int] = None,
    ) -> None:
        """Feed one executed query into the ring and the decayed histogram."""
        observation = Observation(
            shape=tuple(int(l) for l in shape),
            seeks=int(seeks),
            pages=int(pages),
            records=int(records),
            over_read=int(over_read),
            cold_misses=None if cold_misses is None else int(cold_misses),
        )
        with self._lock:
            self._ring.append(observation)
            self._executed += 1
            key = observation.shape
            self._weights[key] = self._weights.get(key, 0.0) + self._scale
            self._scale *= self._growth
            if self._scale > _SCALE_LIMIT:
                self._renormalize_locked()
            if len(self._weights) > _MAX_TRACKED_SHAPES:
                # Without decay the weight floor never prunes; evict the
                # lightest shapes in one batch (down to 15/16 of the cap)
                # so the histogram stays bounded at amortized O(1) per
                # event rather than paying a linear scan on every one.
                keep = _MAX_TRACKED_SHAPES - _MAX_TRACKED_SHAPES // 16
                for shape in sorted(self._weights, key=self._weights.get)[
                    : len(self._weights) - keep
                ]:
                    del self._weights[shape]
            self._realized_seeks[key] = (
                self._realized_seeks.get(key, 0.0) + observation.seeks
            )
            self._realized_counts[key] = self._realized_counts.get(key, 0) + 1
            if len(self._realized_counts) > _MAX_TRACKED_SHAPES:
                oldest = next(iter(self._realized_counts))
                del self._realized_counts[oldest]
                self._realized_seeks.pop(oldest, None)

    @guarded_by("_lock")
    def _renormalize_locked(self) -> None:
        """Fold the scale back into the weights; drop vanished shapes."""
        scale = self._scale
        self._weights = {
            shape: weight / scale
            for shape, weight in self._weights.items()
            if weight / scale > _WEIGHT_FLOOR
        }
        self._scale = 1.0

    # ------------------------------------------------------------------
    # Views (read by the control plane)
    # ------------------------------------------------------------------
    @property
    def window(self) -> int:
        """Ring-buffer capacity."""
        return self._window

    @property
    def half_life(self) -> Optional[float]:
        """Histogram decay half-life in events (None: no decay)."""
        return self._half_life

    @property
    def executed_events(self) -> int:
        """Total executed queries recorded (monotone, never decays)."""
        with self._lock:
            return self._executed

    @property
    def planned_events(self) -> int:
        """Total planner events recorded."""
        with self._lock:
            return self._planned

    def observations(self) -> Tuple[Observation, ...]:
        """The ring buffer's current contents, oldest first."""
        with self._lock:
            return tuple(self._ring)

    def histogram(self) -> Dict[Shape, float]:
        """The decayed shape mix, normalized to sum to 1 (empty when idle)."""
        with self._lock:
            total = sum(self._weights.values())
            if total <= 0:
                return {}
            return {shape: weight / total for shape, weight in self._weights.items()}

    def shapes(self) -> Tuple[Shape, ...]:
        """Shapes currently carrying histogram weight."""
        with self._lock:
            return tuple(self._weights)

    def mean_realized_seeks(self, shape: Tuple[int, ...]) -> Optional[float]:
        """Mean measured seeks of executed queries of ``shape`` (None: unseen)."""
        key = tuple(int(l) for l in shape)
        with self._lock:
            count = self._realized_counts.get(key, 0)
            if not count:
                return None
            return self._realized_seeks[key] / count

    def mean_estimated_seeks(self, shape: Tuple[int, ...]) -> Optional[float]:
        """Mean planner-predicted seeks for ``shape`` (None: never planned)."""
        key = tuple(int(l) for l in shape)
        with self._lock:
            count = self._planned_shapes.get(key, 0)
            if not count:
                return None
            return self._estimated_seeks[key] / count

    def clear(self) -> None:
        """Forget everything (e.g. after a curve migration resets the era)."""
        with self._lock:
            self._ring.clear()
            self._weights.clear()
            self._scale = 1.0
            self._executed = 0
            self._planned = 0
            self._planned_shapes.clear()
            self._estimated_seeks.clear()
            self._realized_seeks.clear()
            self._realized_counts.clear()
