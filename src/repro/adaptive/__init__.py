"""``repro.adaptive`` — the workload-adaptive control plane.

Lemma 10 proves no curve is optimal for every query shape, so a serving
deployment must *re-choose its curve as the workload shifts*.  This
subsystem is that loop, layered over the existing data plane (engine +
index) without touching its hot path beyond one O(1) hook, the
executor's report of each executed query's shape:

* :mod:`~repro.adaptive.recorder` — :class:`WorkloadRecorder`, the
  thread-safe decayed shape histogram both executors report into;
* :mod:`~repro.adaptive.drift` — :class:`DriftDetector`, periodically
  re-scoring the recorded mix against candidate curves with the exact
  Lemma 1 advisor (incrementally — per-(curve, shape) costs are
  memoized) and flagging regret beyond a threshold;
* :mod:`~repro.adaptive.migrator` — :class:`OnlineMigrator`, re-keying
  the records into a shadow page layout under the winning curve in
  bounded batches while queries keep serving, then cutting over
  atomically on the index's epoch;
* :mod:`~repro.adaptive.controller` — :class:`AdaptiveController`,
  the observe → detect → migrate loop over one index, with an auditable
  event log.

Quickstart::

    from repro import SFCIndex, make_curve
    from repro.adaptive import AdaptiveController, WorkloadRecorder

    curve = make_curve("rowmajor", side=64, dim=2)
    index = SFCIndex(curve, page_capacity=16, recorder=WorkloadRecorder())
    index.bulk_load(points); index.flush()
    candidates = [make_curve(n, 64, 2) for n in ("rowmajor", "onion", "hilbert")]
    controller = AdaptiveController(index, candidates)
    for rect in live_queries:
        index.range_query(rect)        # recorder observes automatically
        controller.maybe_adapt()       # checks drift, migrates when it pays
"""

from .controller import AdaptationEvent, AdaptiveController
from .drift import DriftDetector, DriftReport
from .migrator import MigrationReport, OnlineMigrator
from .recorder import WorkloadRecorder

__all__ = [
    "AdaptationEvent",
    "AdaptiveController",
    "DriftDetector",
    "DriftReport",
    "MigrationReport",
    "OnlineMigrator",
    "WorkloadRecorder",
]
