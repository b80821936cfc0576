"""Live query-shape telemetry: the data plane reports, the control plane reads.

A :class:`WorkloadRecorder` is the adaptive subsystem's only contact
with the serving path.  The executor's one execution report calls
:meth:`~WorkloadRecorder.record_executed` with the shape of every query
executed or streamed; each call is O(1) amortized under one lock, so
the hook is cheap enough to leave on in production, with many client
threads hammering one index.

The recorder keeps a **decayed shape histogram** — per-shape weights
where an event's weight decays by half every ``half_life`` events — the
drift detector's input, and the count of events recorded, which paces
the detector's checks.  Decay is what makes the histogram *follow* the
workload: after a rows→cubes shift, the row era fades at a known rate
instead of anchoring the mix forever.

The decay is implemented with a growing per-event scale factor (new
events are worth more) rather than an O(shapes) rescan per event;
weights are renormalized when the scale overflows comfortable float
range, so recording stays O(1) amortized.
"""

from __future__ import annotations

import threading
from typing import Dict, Optional, Sequence, Tuple

from ..devtools.annotations import guarded_by
from ..errors import InvalidQueryError

__all__ = ["WorkloadRecorder"]

#: A query shape: per-dimension side lengths of the rect.
Shape = Tuple[int, ...]

#: Renormalize the decay scale before it threatens float overflow.
_SCALE_LIMIT = 1e12

#: Drop histogram entries that decayed below this relative weight.
_WEIGHT_FLOOR = 1e-15

#: Cap on distinct shapes the histogram tracks; beyond it the lightest
#: shapes are evicted, so a long-lived recorder under maximally diverse
#: workloads stays bounded even without decay (with decay, the weight
#: floor also prunes at each renormalization).
_MAX_TRACKED_SHAPES = 4096


class WorkloadRecorder:
    """Thread-safe decayed shape histogram of live queries.

    Parameters
    ----------
    half_life:
        Events after which a recorded event's histogram weight has
        halved; ``None`` disables decay (all history weighs equally).
    """

    def __init__(self, half_life: Optional[float] = 256.0):
        if half_life is not None and half_life <= 0:
            raise InvalidQueryError(
                f"half_life must be positive or None, got {half_life}"
            )
        self._lock = threading.Lock()
        #: Per-event weight multiplier: each new event is worth
        #: ``2**(1/half_life)`` times the previous one, which is the same
        #: as decaying all old weights — without touching them.
        self._growth = 2.0 ** (1.0 / half_life) if half_life else 1.0
        self._scale = 1.0  # guarded-by: _lock
        self._weights: Dict[Shape, float] = {}  # guarded-by: _lock
        self._executed = 0  # guarded-by: _lock

    # ------------------------------------------------------------------
    # The hook (called from the serving path)
    # ------------------------------------------------------------------
    def record_executed(self, shape: Sequence[int]) -> None:
        """Feed the shape of one executed query into the decayed histogram."""
        key = tuple(int(l) for l in shape)
        with self._lock:
            self._executed += 1
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
    def executed_events(self) -> int:
        """Total executed queries recorded (monotone, never decays)."""
        with self._lock:
            return self._executed

    def histogram(self) -> Dict[Shape, float]:
        """The decayed shape mix, normalized to sum to 1 (empty when idle)."""
        with self._lock:
            total = sum(self._weights.values())
            if total <= 0:
                return {}
            return {shape: weight / total for shape, weight in self._weights.items()}

    def clear(self) -> None:
        """Forget everything (e.g. after a curve migration resets the era)."""
        with self._lock:
            self._weights.clear()
            self._scale = 1.0
            self._executed = 0
