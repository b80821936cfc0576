"""``repro.devtools``: the repo's own correctness tooling.

A re-entrant store mutex and a shared I/O lock guard the stores, every
layout swap must bump the plan-cache epoch, and every durable mutation
must reach the write-ahead log before it is applied.  ``repro lint``
checks these invariants statically, the role sanitizers play in a
production serving stack:

* :mod:`repro.devtools.annotations` — the ``@guarded_by`` decorator and
  the ``# guarded-by: <lock>`` comment the analyzer reads;
* :mod:`repro.devtools.locklint` — guarded-field access outside
  ``with self.<lock>`` and lock-order inversions;
* :mod:`repro.devtools.lifecycle` — spans, cursors, WAL handles and fds
  released on every path;
* :mod:`repro.devtools.ordering` — log-then-apply, the checkpoint
  rename chain, and handlers that swallow ``InjectedCrash``;
* :mod:`repro.devtools.invariants` — epoch bumps, notify-once streams,
  mutable defaults and curve-matrix coverage;
* :mod:`repro.devtools.ratchet` — the mypy strict ratchet: per-package
  error budgets that can only shrink;
* :mod:`repro.devtools.cli` — the ``repro lint`` entry point, a
  blocking CI job.

The analyzers never *import* the code under analysis — everything is
``ast`` over source text — so a module with a seeded bug can be linted
without executing it.  The package root exports only ``guarded_by``,
the one name production modules need, so ``import repro`` loads no
lint machinery.
"""

from __future__ import annotations

from .annotations import guarded_by

__all__ = ["guarded_by"]
