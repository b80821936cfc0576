"""Thread-safe metrics: counters, gauges, log2-bucket histograms.

Design constraints, in order:

1. **Near-zero cost when disabled.**  The registry starts disabled;
   every ``inc``/``observe``/``set`` begins with a single flag check
   and returns.  Instrumented modules bind their metric handles once
   at import time, so the hot-path cost of a disabled metric is one
   attribute load and one branch — no dict lookups, no locks.
2. **Metrics never raise on the hot path** (CONTRIBUTING invariant
   10).  A malformed observation is counted in the registry's internal
   ``errors`` tally and otherwise swallowed; telemetry must never take
   down the query path it is watching.  Histograms vet observations
   lazily — ``observe`` just appends to a pending list and the
   validation/bucketing happens when the histogram is next read (or
   when the pending batch hits its cap), keeping the enabled write
   path to a flag check plus one atomic append.
3. **Thread safety.**  Registration is guarded by the registry lock;
   each metric guards its own state with its own lock, so two threads
   observing different metrics never contend.

Histograms use log2 buckets: an observation lands in the bucket whose
upper bound is the smallest power of two ``>= value`` (via
:func:`math.frexp`, so no loops or binary search).  Quantiles
(p50/p99/p999) are estimated as the upper bound of the bucket
containing the quantile rank — exact enough for latency telemetry and
O(#buckets) to compute.

Exposition: :meth:`MetricsRegistry.render_prometheus` emits the
Prometheus text format (histograms as summaries with ``quantile``
labels) and :meth:`MetricsRegistry.render_json` emits a plain dict.
"""

from __future__ import annotations

import itertools
import json
import math
import threading
from typing import Dict, List, Optional, Tuple, Union

from ..devtools.annotations import guarded_by

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "METRICS",
    "MetricsRegistry",
    "disable_metrics",
    "enable_metrics",
    "metrics_enabled",
]

_QUANTILES: Tuple[Tuple[str, float], ...] = (
    ("0.5", 0.50),
    ("0.99", 0.99),
    ("0.999", 0.999),
)

JSONScalar = Union[int, float, str, None]


def _bucket_exponent(value: float) -> int:
    """Exponent ``e`` such that ``2**(e-1) < value <= 2**e`` (0 for <= 0)."""
    if value <= 0.0:
        return -1074  # denormal floor: a dedicated "~zero" bucket
    mantissa, exponent = math.frexp(value)
    # frexp: value == mantissa * 2**exponent with 0.5 <= mantissa < 1,
    # so 2**(exponent-1) <= value < 2**exponent; exact powers of two
    # (mantissa == 0.5) belong to the lower bucket.
    if mantissa == 0.5:
        return exponent - 1
    return exponent


class Counter:
    """Monotone counter. ``inc`` is a no-op while the registry is disabled.

    Both write paths bypass the lock.  The unit increment: ``next`` on
    an :class:`itertools.count` is a single C call, atomic under the
    GIL, so concurrent unit ``inc`` calls can never lose a tick.  A
    reader takes one tick too, under the lock, and subtracts the ticks
    earlier reads took: the count's pickle support, its only other view
    of the position, is deprecated since Python 3.12.  A non-unit
    amount — the executor's per-execution seek, sequential-read
    and record counts — is validated and appended to a pending list
    (``list.append`` is atomic under the GIL, so no increment is lost)
    and folded into the total under the lock by readers, or when the
    pending batch reaches ``_PENDING_LIMIT``: the scheme
    :class:`Histogram` uses, because an uncontended lock round trip
    costs several times the rest of the increment.
    """

    __slots__ = (
        "name", "help", "_registry", "_lock", "_ticks", "_reads", "_pending", "_base"
    )

    #: Fold the pending list when a write sees it this large, bounding
    #: memory for a hot counter that is never scraped.
    _PENDING_LIMIT = 4096

    def __init__(self, name: str, help_text: str, registry: "MetricsRegistry") -> None:
        self.name = name
        self.help = help_text
        self._registry = registry
        self._lock = threading.Lock()
        self._ticks = itertools.count()  # unit incs and reads; GIL-atomic
        self._reads = 0  # ticks taken by readers; guarded-by: _lock
        # Non-unit incs: written lock-free (GIL-atomic appends), folded
        # only with _lock held (see _fold_locked).
        self._pending: List[float] = []
        self._base = 0.0  # folded non-unit incs; guarded-by: _lock

    def inc(self, amount: float = 1) -> None:
        if not self._registry.enabled:
            return
        if amount == 1:  # NaN fails this check and falls through
            next(self._ticks)
            return
        try:
            value = amount if type(amount) is float else float(amount)
            if not value >= 0.0:  # negative or NaN
                raise ValueError(amount)
        except Exception:
            self._registry._count_error()
            return
        pending = self._pending
        pending.append(value)
        if len(pending) >= self._PENDING_LIMIT:
            with self._lock:
                self._fold_locked()

    @guarded_by("_lock")
    def _fold_locked(self) -> None:
        """Add the pending increments to the total, in arrival order.

        Safe against concurrent lock-free appends for the reason
        :meth:`Histogram._fold_locked` is: only the prefix captured up
        front is read and deleted.
        """
        pending = self._pending
        upto = len(pending)
        total = self._base
        for value in pending[:upto]:
            total += value
        self._base = total
        del pending[:upto]

    @guarded_by("_lock")
    def _ticks_locked(self) -> int:
        """Unit increments so far: the count's next value, less the
        ticks earlier reads took (counts start at 0)."""
        ticks = next(self._ticks) - self._reads
        self._reads += 1
        return ticks

    @property
    def value(self) -> float:
        with self._lock:
            self._fold_locked()
            return self._base + self._ticks_locked()

    def reset(self) -> None:
        with self._lock:
            self._fold_locked()
            self._base = 0.0
            self._ticks = itertools.count()
            self._reads = 0


class Gauge:
    """Point-in-time value. ``set``/``inc``/``dec`` no-op while disabled."""

    __slots__ = ("name", "help", "_registry", "_lock", "_value")

    def __init__(self, name: str, help_text: str, registry: "MetricsRegistry") -> None:
        self.name = name
        self.help = help_text
        self._registry = registry
        self._lock = threading.Lock()
        self._value = 0.0  # guarded-by: _lock

    def set(self, value: float) -> None:
        if not self._registry.enabled:
            return
        try:
            numeric = float(value)
            with self._lock:
                self._value = numeric
        except Exception:
            self._registry._count_error()

    def inc(self, amount: float = 1) -> None:
        if not self._registry.enabled:
            return
        try:
            numeric = float(amount)
            with self._lock:
                self._value += numeric
        except Exception:
            self._registry._count_error()

    def dec(self, amount: float = 1) -> None:
        self.inc(-amount)

    @property
    def value(self) -> float:
        with self._lock:
            return self._value

    def reset(self) -> None:
        with self._lock:
            self._value = 0.0


class Histogram:
    """Log2-bucket histogram with p50/p99/p999 estimation.

    Buckets are keyed by the :func:`math.frexp` exponent of the
    observation; the bucket's representative value is its upper bound
    ``2**e``.  ``observe`` is a no-op while the registry is disabled
    and never raises (invariant 10).

    The write path is lock-free: ``observe`` appends the raw value to a
    pending list (``list.append`` is atomic under the GIL, so no
    observation is ever lost) and the bucketing work — validation,
    ``frexp``, min/max — happens in ``_fold_locked`` on the *read* side,
    or when the pending batch reaches ``_PENDING_LIMIT``.  Readers all
    fold before answering, so the laziness is never visible; writers pay
    a flag check, an append and a length check.
    """

    __slots__ = (
        "name", "help", "_registry", "_lock", "_pending",
        "_buckets", "_count", "_sum", "_min", "_max",
    )

    #: Fold (and compact) the pending list when a write sees it this
    #: large, bounding memory for a hot histogram that is never scraped.
    _PENDING_LIMIT = 4096

    def __init__(self, name: str, help_text: str, registry: "MetricsRegistry") -> None:
        self.name = name
        self.help = help_text
        self._registry = registry
        self._lock = threading.Lock()
        # Written lock-free (GIL-atomic appends); folded/compacted only
        # with _lock held, and folds never touch indexes a concurrent
        # append can produce (see _fold_locked).
        self._pending: List[float] = []
        self._buckets: Dict[int, int] = {}  # guarded-by: _lock
        self._count = 0  # guarded-by: _lock
        self._sum = 0.0  # guarded-by: _lock
        self._min: Optional[float] = None  # guarded-by: _lock
        self._max: Optional[float] = None  # guarded-by: _lock

    def observe(self, value: float) -> None:
        if not self._registry.enabled:
            return
        pending = self._pending
        pending.append(value)  # atomic; garbage is vetted at fold time
        if len(pending) >= self._PENDING_LIMIT:
            with self._lock:
                self._fold_locked()

    @guarded_by("_lock")
    def _fold_locked(self) -> None:
        """Drain pending observations into the buckets.

        Safe against concurrent lock-free appends: the fold only reads
        ``pending[:upto]`` with ``upto`` captured up front, and the
        compaction deletes exactly that prefix — a value appended
        mid-fold lands at an index ``>= upto``, survives the ``del``,
        and is picked up by the next fold.
        """
        pending = self._pending
        upto = len(pending)
        if not upto:
            return
        buckets = self._buckets
        for raw in pending[:upto]:
            try:
                numeric = raw if type(raw) is float else float(raw)
                if numeric != numeric:  # NaN
                    raise ValueError(raw)
            except Exception:
                self._registry._count_error()
                continue
            exponent = _bucket_exponent(numeric)
            buckets[exponent] = buckets.get(exponent, 0) + 1
            self._count += 1
            self._sum += numeric
            low = self._min
            if low is None or numeric < low:
                self._min = numeric
            high = self._max
            if high is None or numeric > high:
                self._max = numeric
        del pending[:upto]

    @property
    def count(self) -> int:
        with self._lock:
            self._fold_locked()
            return self._count

    @property
    def sum(self) -> float:
        with self._lock:
            self._fold_locked()
            return self._sum

    def quantile(self, q: float) -> float:
        """Upper bound of the bucket holding the ``q``-quantile rank.

        Exact observed min/max are returned for ``q`` at the extremes
        of a bucket-spanning distribution's tails, so single-valued
        histograms report the true value rather than a bucket ceiling.
        """
        with self._lock:
            self._fold_locked()
            return self._quantile_locked(q)

    @guarded_by("_lock")
    def _quantile_locked(self, q: float) -> float:
        if self._count == 0:
            return 0.0
        if self._min is not None and self._max is not None and self._min == self._max:
            return self._min
        rank = q * self._count
        seen = 0
        for exponent in sorted(self._buckets):
            seen += self._buckets[exponent]
            if seen >= rank:
                upper = math.ldexp(1.0, exponent)
                if self._max is not None and upper > self._max:
                    return self._max
                return upper
        return self._max if self._max is not None else 0.0

    def snapshot(self) -> Dict[str, JSONScalar]:
        """count/sum/min/max plus p50/p99/p999, under one lock hold."""
        with self._lock:
            self._fold_locked()
            return {
                "count": self._count,
                "sum": self._sum,
                "min": self._min,
                "max": self._max,
                "p50": self._quantile_locked(0.50),
                "p99": self._quantile_locked(0.99),
                "p999": self._quantile_locked(0.999),
            }

    def reset(self) -> None:
        with self._lock:
            del self._pending[:]
            self._buckets.clear()
            self._count = 0
            self._sum = 0.0
            self._min = None
            self._max = None


class MetricsRegistry:
    """Get-or-create registry of named metrics with an enable switch.

    ``counter``/``gauge``/``histogram`` return the existing metric when
    the name is already registered (same-name re-registration with a
    different type raises — that is a programming error at import time,
    not a hot-path event, so raising is safe and correct).
    """

    def __init__(self, enabled: bool = False) -> None:
        self.enabled = enabled  # hot-path flag: read unlocked by design
        self._lock = threading.Lock()
        self._metrics: Dict[str, Union[Counter, Gauge, Histogram]] = {}  # guarded-by: _lock
        self._errors = 0  # guarded-by: _lock

    # -- lifecycle ---------------------------------------------------------
    def enable(self) -> None:
        self.enabled = True

    def disable(self) -> None:
        self.enabled = False

    @property
    def errors(self) -> int:
        """Observations swallowed by the never-raise discipline."""
        with self._lock:
            return self._errors

    def _count_error(self) -> None:
        with self._lock:
            self._errors += 1

    # -- registration ------------------------------------------------------
    def counter(self, name: str, help_text: str = "") -> Counter:
        return self._register(Counter, name, help_text)

    def gauge(self, name: str, help_text: str = "") -> Gauge:
        return self._register(Gauge, name, help_text)

    def histogram(self, name: str, help_text: str = "") -> Histogram:
        return self._register(Histogram, name, help_text)

    def _register(self, kind: type, name: str, help_text: str):  # type: ignore[no-untyped-def]
        with self._lock:
            existing = self._metrics.get(name)
            if existing is not None:
                if not isinstance(existing, kind):
                    raise TypeError(
                        f"metric {name!r} already registered as "
                        f"{type(existing).__name__}, requested {kind.__name__}"
                    )
                return existing
            metric = kind(name, help_text, self)
            self._metrics[name] = metric
            return metric

    def get(self, name: str) -> Optional[Union[Counter, Gauge, Histogram]]:
        with self._lock:
            return self._metrics.get(name)

    def reset(self) -> None:
        """Zero every metric (used by tests and the CLI demos)."""
        with self._lock:
            metrics = list(self._metrics.values())
            self._errors = 0
        for metric in metrics:
            metric.reset()

    # -- exposition --------------------------------------------------------
    def _sorted_metrics(self) -> List[Union[Counter, Gauge, Histogram]]:
        with self._lock:
            return [self._metrics[name] for name in sorted(self._metrics)]

    def render_prometheus(self) -> str:
        """Prometheus text exposition (histograms as summaries)."""
        lines: List[str] = []
        for metric in self._sorted_metrics():
            if isinstance(metric, Counter):
                if metric.help:
                    lines.append(f"# HELP {metric.name} {metric.help}")
                lines.append(f"# TYPE {metric.name} counter")
                lines.append(f"{metric.name} {_format_value(metric.value)}")
            elif isinstance(metric, Gauge):
                if metric.help:
                    lines.append(f"# HELP {metric.name} {metric.help}")
                lines.append(f"# TYPE {metric.name} gauge")
                lines.append(f"{metric.name} {_format_value(metric.value)}")
            else:
                snap = metric.snapshot()
                if metric.help:
                    lines.append(f"# HELP {metric.name} {metric.help}")
                lines.append(f"# TYPE {metric.name} summary")
                for label, q in _QUANTILES:
                    value = metric.quantile(q)
                    lines.append(
                        f'{metric.name}{{quantile="{label}"}} {_format_value(value)}'
                    )
                lines.append(f"{metric.name}_sum {_format_value(float(snap['sum']))}")  # type: ignore[arg-type]
                lines.append(f"{metric.name}_count {int(snap['count'])}")  # type: ignore[call-overload]
        return "\n".join(lines) + ("\n" if lines else "")

    def render_json(self) -> Dict[str, Dict[str, object]]:
        """JSON-ready exposition: counters/gauges/histograms sections."""
        counters: Dict[str, object] = {}
        gauges: Dict[str, object] = {}
        histograms: Dict[str, object] = {}
        for metric in self._sorted_metrics():
            if isinstance(metric, Counter):
                counters[metric.name] = metric.value
            elif isinstance(metric, Gauge):
                gauges[metric.name] = metric.value
            else:
                histograms[metric.name] = metric.snapshot()
        return {"counters": counters, "gauges": gauges, "histograms": histograms}

    def render_json_text(self, indent: int = 2) -> str:
        return json.dumps(self.render_json(), indent=indent, sort_keys=True)


def _format_value(value: float) -> str:
    """Integral floats render as ints: `7`, not `7.0` (stable goldens)."""
    if float(value).is_integer():
        return str(int(value))
    return repr(float(value))


#: The process-wide registry every instrumented module binds against.
METRICS = MetricsRegistry(enabled=False)


def enable_metrics() -> None:
    """Turn on collection for the process-wide registry."""
    METRICS.enable()


def disable_metrics() -> None:
    """Return the process-wide registry to the no-op fast path."""
    METRICS.disable()


def metrics_enabled() -> bool:
    return METRICS.enabled
