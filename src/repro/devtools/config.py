"""Repo-specific configuration for the static analyzers.

The rules themselves are generic AST machinery; everything that encodes
*this* repo's conventions — the canonical lock order, the resource
pairs, where the curve registry and the test curve matrices live — is
declared here, in one reviewable place.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import FrozenSet, Tuple

__all__ = [
    "CHAIN_OP_NAMES",
    "DECLARED_LOCK_ORDER",
    "DURABLE_APPLY_CALLS",
    "GLOBAL_LOCKS",
    "MATRIX_VARIABLE_NAMES",
    "NOTIFY_CALLS",
    "RESOURCE_PAIRS",
    "ResourcePair",
    "WAL_LOG_CALLS",
    "default_baseline_path",
    "default_registry_path",
    "default_src_root",
    "default_tests_root",
]

#: The canonical cross-module acquisition order: a thread holding a lock
#: may only acquire locks that appear *later* in this tuple.  ``_mutex``
#: is the store mutex (re-entrant, guards every mutation and snapshot);
#: ``_io_lock`` serializes charged page reads across executor
#: generations and guards buffer-pool clears during a layout swap.
DECLARED_LOCK_ORDER: Tuple[str, ...] = ("_mutex", "_io_lock")

#: Lock names that mean the *same* lock wherever they appear, so edges
#: between them are checked globally.  Every other lock name (e.g. the
#: ``_lock`` inside PlanCache and WorkloadRecorder — different objects
#: that happen to share a spelling) is scoped to its class.
GLOBAL_LOCKS: FrozenSet[str] = frozenset(DECLARED_LOCK_ORDER)

#: One row of the acquire/release pair table the resource-lifecycle
#: rule enforces: anything obtained through a call matching ``acquires``
#: must reach one of the ``releases`` methods on every CFG path.
@dataclass(frozen=True)
class ResourcePair:
    #: Short kind label, used in finding keys (``cursor``, ``span``...).
    kind: str
    #: Rule name the findings are reported under — the span row keeps
    #: the historical ``span-balance`` name, everything else reports as
    #: ``resource-lifecycle``.
    rule: str
    #: Call names (``x.NAME(...)`` attribute or bare ``NAME(...)``)
    #: whose result is the resource.
    acquires: Tuple[str, ...]
    #: Method names that release it (``resource.NAME()``).
    releases: Tuple[str, ...]
    #: When True, ``acquires`` entries match as name *suffixes*
    #: (``open_span`` also matches ``_obs_open_span``).
    suffix: bool = False
    #: Restrict acquisition to calls whose receiver is one of these
    #: bare names (``os.open``); None means any receiver.
    receivers: Tuple[str, ...] = ()
    #: Release-by-argument form: ``RECEIVER.NAME(resource)`` for rows
    #: like ``os.close(fd)``.
    release_funcs: Tuple[str, ...] = ()
    #: When True, handing the resource to someone else (returning it,
    #: storing it on an object, passing it as a call argument to
    #: anything but a :data:`CHAIN_OP_NAMES` primitive) transfers
    #: ownership and ends local tracking.  Spans keep False — the
    #: historical span-balance contract demands a local ``.end()``.
    escapes: bool = True


#: The acquire/release pairs the resource-lifecycle rule knows about:
#: Trace span end, Cursor close, WAL / page-file handle close and raw
#: fd close.
RESOURCE_PAIRS: Tuple[ResourcePair, ...] = (
    ResourcePair(
        kind="span", rule="span-balance",
        acquires=("open_span",), releases=("end",),
        suffix=True, escapes=False,
    ),
    ResourcePair(
        kind="cursor", rule="resource-lifecycle",
        acquires=("cursor",), releases=("close",),
    ),
    ResourcePair(
        kind="wal-handle", rule="resource-lifecycle",
        acquires=("open_append", "open_write"), releases=("close",),
    ),
    ResourcePair(
        kind="fd", rule="resource-lifecycle",
        acquires=("open",), releases=("close",),
        receivers=("os",), release_funcs=("close",),
    ),
)

#: ``self.<name>(...)`` calls that append the logical op to the WAL.
#: In any function that calls one of these, the durability-ordering
#: rule requires the append to dominate every state mutation
#: (CONTRIBUTING invariant 7: log-then-apply).
WAL_LOG_CALLS: FrozenSet[str] = frozenset(
    {"_log_durable", "_log_migrate", "_log_bulk"}
)

#: ``self.<name>(...)`` calls that *apply* a mutation to in-memory
#: state.  Together with any ``self.<attr> = ...`` store they are the
#: mutations the WAL append must dominate.
DURABLE_APPLY_CALLS: FrozenSet[str] = frozenset(
    {
        "_append_records",
        "_note_write",
        "_install_layout",
        "_invalidate_layout",
    }
)

#: Functions *implementing* a link of the temp-write → fsync → replace
#: → dir-fsync chain (the ``FileOps`` seam and its ``CrashInjector``
#: wrappers).  The chain rule skips them: they are the boundary the
#: rule checks everyone else against.  The lifecycle rule reads a call
#: to one of them as a borrow: the handle it is passed stays the
#: caller's to release.
CHAIN_OP_NAMES: FrozenSet[str] = frozenset(
    {
        "replace",
        "write_file",
        "fsync",
        "fsync_dir",
        "open_append",
        "open_write",
        "unlink",
        "truncate",
        "write",
    }
)

#: Call names (``x.NAME(...)``) that notify the workload recorder of an
#: execution: the recorder's own ``record_executed``, and the executor's
#: ``_report``, which streams call to make it.  The notify-once rule
#: holds every streaming class that calls one to the exactly-once
#: contract (CONTRIBUTING invariant 5).
NOTIFY_CALLS: FrozenSet[str] = frozenset({"record_executed", "_report"})

#: Module-level assignment names that declare a test curve matrix.  The
#: curve-matrix rule unions every string literal assigned to one of
#: these across the test tree and requires every registered curve name
#: to appear (or to be baselined with a reason).
MATRIX_VARIABLE_NAMES: FrozenSet[str] = frozenset(
    {"ALL_CURVE_SPECS", "ALL_CURVES", "CURVES", "CURVE_NAMES"}
)


def _repo_root() -> Path:
    """``<repo>/`` assuming the canonical ``<repo>/src/repro/devtools``."""
    return Path(__file__).resolve().parents[3]


def default_src_root() -> Path:
    """The production tree the analyzers walk: ``src/repro``."""
    return Path(__file__).resolve().parents[1]


def default_tests_root() -> Path:
    """The test tree the curve-matrix rule scans."""
    return _repo_root() / "tests"


def default_registry_path() -> Path:
    """The curve registry whose ``_REGISTRY`` keys define "registered"."""
    return default_src_root() / "curves" / "registry.py"


def default_baseline_path() -> Path:
    """The intentional-exception baseline shipped with the analyzer."""
    return Path(__file__).resolve().parent / "lint_baseline.txt"
