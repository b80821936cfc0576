"""Runtime race-detector harness for the concurrency hammer suites.

A test helper, imported as ``racecheck`` (like ``layout_oracle``); no
production module uses it.  The static analyzer in
:mod:`repro.devtools.locklint` proves discipline *within* a method;
this module observes it *across* methods and threads while a real
hammer test runs.  Three pieces:

* :class:`TrackedLock` — a delegating wrapper around a
  ``threading.Lock`` / ``RLock`` that reports every acquire/release to
  a tracker.  Supports the full context-manager protocol plus explicit
  ``acquire``/``release``, so it is a drop-in for any lock attribute.
* :class:`LockOrderTracker` — per-thread held-lock stacks plus a global
  acquisition-edge multigraph.  After the hammer,
  :meth:`~LockOrderTracker.order_violations` cross-checks the observed
  edges against the statically declared order
  (:data:`~repro.devtools.config.DECLARED_LOCK_ORDER`) and reports
  cycles, declared-order contradictions, and (optionally) edges the
  static graph never predicted.
* :func:`watch_fields` — field-level race detection: swaps an object's
  class for a dynamic subclass whose data descriptors record a
  :class:`FieldViolation` whenever a watched field is read or written
  by a thread that does not hold the field's guarding lock.  Values
  move to shadow slots in the instance ``__dict__``; behaviour is
  otherwise unchanged, so the hammer exercises the production paths.

Instrument *before* the store spawns executors or caches lock
references (``instrument`` right after construction): the engine takes
``lock = self._io_lock`` once per stream, and only a wrapped lock at
that moment is observed.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from typing import Any, Dict, Iterable, List, Mapping, Optional, Sequence, Set, Tuple

from repro.devtools.config import DECLARED_LOCK_ORDER

__all__ = [
    "FieldViolation",
    "LockOrderTracker",
    "OrderViolation",
    "TrackedLock",
    "watch_fields",
]


@dataclass(frozen=True)
class OrderViolation:
    """One lock-order problem observed at runtime."""

    #: ``cycle`` (both directions seen), ``declared-order`` (edge
    #: contradicts the configured order), or ``unexpected-edge``.
    kind: str
    first: str
    second: str
    details: str

    def render(self) -> str:
        return f"[{self.kind}] {self.first} -> {self.second}: {self.details}"


@dataclass(frozen=True)
class FieldViolation:
    """A watched field touched without its guarding lock held."""

    field: str
    lock: str
    #: ``read`` or ``write``.
    operation: str
    thread: str

    def render(self) -> str:
        return (
            f"[unguarded-{self.operation}] {self.field} touched by "
            f"{self.thread} without holding {self.lock}"
        )


class LockOrderTracker:
    """Records acquisition order and guarded-field access across threads.

    Thread-safe: per-thread state lives in ``threading.local`` stacks;
    the shared edge graph and violation list sit behind the tracker's
    own private lock (which is never visible to the code under test, so
    it cannot perturb the ordering being measured).
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._edges: Dict[Tuple[str, str], int] = {}  # guarded-by: _lock
        self._acquires: Dict[str, int] = {}  # guarded-by: _lock
        self._field_violations: List[FieldViolation] = []  # guarded-by: _lock
        self._local = threading.local()

    # ------------------------------------------------------------------
    # Per-thread bookkeeping
    # ------------------------------------------------------------------
    def _stack(self) -> List[str]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = []
            self._local.stack = stack
        return stack

    def holds(self, name: str) -> bool:
        """True when the calling thread currently holds ``name``."""
        return name in self._stack()

    def note_acquire(self, name: str) -> None:
        """Record that the calling thread acquired ``name`` (post-acquire)."""
        stack = self._stack()
        if name not in stack:  # re-entrant re-acquire adds no edge
            held = list(dict.fromkeys(stack))
            with self._lock:
                self._acquires[name] = self._acquires.get(name, 0) + 1
                for prior in held:
                    key = (prior, name)
                    self._edges[key] = self._edges.get(key, 0) + 1
        stack.append(name)

    def note_release(self, name: str) -> None:
        """Record a release (innermost matching hold)."""
        stack = self._stack()
        for i in range(len(stack) - 1, -1, -1):
            if stack[i] == name:
                del stack[i]
                return

    def note_field(self, field_name: str, lock: str, operation: str) -> None:
        """Record a watched-field access; a violation if the guarding
        lock is not held by the calling thread."""
        if self.holds(lock):
            return
        violation = FieldViolation(
            field=field_name,
            lock=lock,
            operation=operation,
            thread=threading.current_thread().name,
        )
        with self._lock:
            self._field_violations.append(violation)

    # ------------------------------------------------------------------
    # Instrumentation
    # ------------------------------------------------------------------
    def wrap(self, lock: Any, name: str) -> "TrackedLock":
        """A :class:`TrackedLock` reporting to this tracker as ``name``."""
        return TrackedLock(lock, name, self)

    def instrument(self, obj: Any, names: Iterable[str]) -> Any:
        """Replace ``obj``'s lock attributes with tracked wrappers.

        Call immediately after construction, before the store builds
        executors or streams that capture raw lock references.
        """
        for name in names:
            setattr(obj, name, self.wrap(getattr(obj, name), name))
        return obj

    # ------------------------------------------------------------------
    # Post-hammer verdicts
    # ------------------------------------------------------------------
    def edges(self) -> Dict[Tuple[str, str], int]:
        """The observed acquisition-edge multigraph (edge -> count)."""
        with self._lock:
            return dict(self._edges)

    def acquire_counts(self) -> Dict[str, int]:
        """Non-reentrant acquires per lock — proves the hammer hammered."""
        with self._lock:
            return dict(self._acquires)

    def field_violations(self) -> Tuple[FieldViolation, ...]:
        with self._lock:
            return tuple(self._field_violations)

    def order_violations(
        self,
        declared_order: Sequence[str] = DECLARED_LOCK_ORDER,
        allowed_edges: Optional[Iterable[Tuple[str, str]]] = None,
    ) -> List[OrderViolation]:
        """Cross-check the observed graph against the static declaration.

        ``allowed_edges``, when given, is the complete set of edges the
        static analysis predicts; any observed edge outside it is an
        ``unexpected-edge`` violation even if it breaks no order.
        """
        edges = self.edges()
        order_index = {name: i for i, name in enumerate(declared_order)}
        violations: List[OrderViolation] = []
        reported_cycles: Set[Tuple[str, str]] = set()
        for (a, b), count in sorted(edges.items()):
            pair = tuple(sorted((a, b)))
            if (b, a) in edges and a != b and pair not in reported_cycles:
                reported_cycles.add(pair)  # type: ignore[arg-type]
                violations.append(
                    OrderViolation(
                        kind="cycle",
                        first=a,
                        second=b,
                        details=(
                            f"both orders observed ({count}x {a}->{b}, "
                            f"{edges[(b, a)]}x {b}->{a}) — deadlock schedule exists"
                        ),
                    )
                )
            if (
                a in order_index
                and b in order_index
                and order_index[a] > order_index[b]
            ):
                violations.append(
                    OrderViolation(
                        kind="declared-order",
                        first=a,
                        second=b,
                        details=(
                            f"observed {count}x against declared order "
                            f"{' -> '.join(declared_order)}"
                        ),
                    )
                )
            if allowed_edges is not None and (a, b) not in set(allowed_edges):
                violations.append(
                    OrderViolation(
                        kind="unexpected-edge",
                        first=a,
                        second=b,
                        details=f"observed {count}x but absent from the static graph",
                    )
                )
        return violations

    def assert_clean(
        self,
        declared_order: Sequence[str] = DECLARED_LOCK_ORDER,
        allowed_edges: Optional[Iterable[Tuple[str, str]]] = None,
    ) -> None:
        """Raise ``AssertionError`` listing every violation, if any."""
        problems = [v.render() for v in self.order_violations(declared_order, allowed_edges)]
        problems.extend(v.render() for v in self.field_violations())
        if problems:
            raise AssertionError(
                "race detector found {} problem(s):\n  {}".format(
                    len(problems), "\n  ".join(problems)
                )
            )


class TrackedLock:
    """Delegating lock wrapper that reports to a :class:`LockOrderTracker`.

    Re-entrant semantics follow the wrapped lock; the tracker only adds
    an edge on the first (non-reentrant) hold per thread.
    """

    __slots__ = ("_inner", "_name", "_tracker")

    def __init__(self, inner: Any, name: str, tracker: LockOrderTracker):
        self._inner = inner
        self._name = name
        self._tracker = tracker

    @property
    def name(self) -> str:
        return self._name

    @property
    def inner(self) -> Any:
        return self._inner

    def acquire(self, blocking: bool = True, timeout: float = -1) -> bool:
        acquired = self._inner.acquire(blocking, timeout)
        if acquired:
            self._tracker.note_acquire(self._name)
        return acquired

    def release(self) -> None:
        self._tracker.note_release(self._name)
        self._inner.release()

    def __enter__(self) -> "TrackedLock":
        self.acquire()
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.release()

    def locked(self) -> bool:
        probe = getattr(self._inner, "locked", None)
        return bool(probe()) if probe is not None else False

    def __repr__(self) -> str:
        return f"TrackedLock({self._name!r}, {self._inner!r})"


class _WatchedField:
    """Data descriptor that audits access to one shadowed field."""

    __slots__ = ("_name", "_slot", "_lock", "_tracker")

    def __init__(self, name: str, lock: str, tracker: LockOrderTracker):
        self._name = name
        self._slot = f"_racecheck_shadow__{name}"
        self._lock = lock
        self._tracker = tracker

    def __get__(self, obj: Any, owner: Any = None) -> Any:
        if obj is None:
            return self
        self._tracker.note_field(self._name, self._lock, "read")
        try:
            return obj.__dict__[self._slot]
        except KeyError:
            raise AttributeError(self._name) from None

    def __set__(self, obj: Any, value: Any) -> None:
        self._tracker.note_field(self._name, self._lock, "write")
        obj.__dict__[self._slot] = value

    def __delete__(self, obj: Any) -> None:
        self._tracker.note_field(self._name, self._lock, "write")
        del obj.__dict__[self._slot]


def watch_fields(
    obj: Any, tracker: LockOrderTracker, guards: Mapping[str, str]
) -> Any:
    """Audit every access to ``guards``' fields on ``obj``.

    ``guards`` maps field name to the lock that must be held around it
    (e.g. ``{"_counts": "_mutex"}``).  The object's class is swapped
    for a one-off subclass carrying a data descriptor per field;
    current values migrate to shadow slots so reads keep working.
    Violations are *recorded*, not raised — raising inside the hammer
    would mask the interleaving being hunted; call
    :meth:`LockOrderTracker.assert_clean` after the run instead.
    """
    cls = type(obj)
    namespace = {
        name: _WatchedField(name, lock, tracker) for name, lock in guards.items()
    }
    watched_cls = type(f"_RaceChecked_{cls.__name__}", (cls,), namespace)
    for name in guards:
        if name in obj.__dict__:
            obj.__dict__[f"_racecheck_shadow__{name}"] = obj.__dict__.pop(name)
    obj.__class__ = watched_cls
    return obj
