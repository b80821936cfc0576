"""The annotation convention the lock-discipline analyzer reads.

Two complementary forms, both deliberately lightweight:

* **Field annotation** — a ``# guarded-by: <lock>`` comment on the line
  that first assigns the field (or on the line directly above it),
  usually in ``__init__``::

      self._counts = [0] * n  # guarded-by: _mutex

  declares that every read or write of ``self._counts`` in that class
  must happen inside a ``with self._mutex:`` block (or in a method the
  callers enter with the lock held — see below).  A subclass is held
  to its bases' annotations too.

* **Method annotation** — the :func:`guarded_by` decorator::

      @guarded_by("_mutex")
      def _route(self, keys):
          ...

  declares that callers must hold ``_mutex`` when invoking the method;
  the analyzer treats the method body as running with the lock held
  (and holds the analyzer itself to the contract: a decorated method
  acquiring further locks contributes edges to the lock-order graph
  from every lock it is entered with).

At runtime :func:`guarded_by` is a no-op apart from stamping the
function with ``__guarded_by__``, so annotating a hot path costs
nothing per call.
"""

from __future__ import annotations

from typing import Callable, TypeVar

__all__ = ["GUARDED_BY_COMMENT", "guarded_by"]

#: The comment marker the AST analyzer scans source lines for.
GUARDED_BY_COMMENT = "# guarded-by:"

_F = TypeVar("_F", bound=Callable)


def guarded_by(*locks: str) -> Callable[[_F], _F]:
    """Declare that callers hold ``locks`` when invoking the method.

    Purely declarative: the decorated function is returned unchanged
    except for a ``__guarded_by__`` attribute naming the locks.  The
    static analyzer seeds the method's held-lock set from the
    decorator as written in the source.
    """
    if not locks or any(not isinstance(name, str) or not name for name in locks):
        raise ValueError(f"guarded_by needs one or more lock names, got {locks!r}")

    def mark(func: _F) -> _F:
        func.__guarded_by__ = tuple(locks)
        return func

    return mark
