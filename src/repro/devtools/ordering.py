"""Ordered-protocol rules: WAL-before-apply, the checkpoint rename
chain, and exception-flow hygiene.

Two rule families, both path-sensitive and both running on the shared
CFG from :mod:`repro.devtools.dataflow`:

* ``durability-ordering`` —

  - *log-then-apply* (CONTRIBUTING invariant 7): in any function that
    appends to the WAL (a :data:`~repro.devtools.config.WAL_LOG_CALLS`
    call — ``self._log_durable`` / ``self._log_migrate``), the append
    must **dominate** every state mutation: every
    :data:`~repro.devtools.config.DURABLE_APPLY_CALLS` call and every
    ``self.<attr> = ...`` store must be reachable only through the log
    call.  This is a must-analysis (a mutation is fine only when *all*
    paths to it logged first), so a ``delete`` that logs inside the
    match branch and mutates after it passes, while an apply that can
    be reached log-free on any path is flagged.
  - *rename chain* (invariant 8): an ``os.replace``-style commit rename
    (receiver ``os`` or a ``FileOps``-like ``*ops*`` object) must
    rename a path previously written through the fsyncing
    ``write_file`` seam, and a directory fsync (``fsync_dir``) must
    follow on every normal path out — otherwise the rename itself may
    not be durable.  Functions *implementing* the chain (the ``FileOps``
    seam and its ``CrashInjector`` wrappers,
    :data:`~repro.devtools.config.CHAIN_OP_NAMES`) are the boundary the
    rule checks everyone else against, and are skipped.

* ``exception-flow`` — a handler that catches ``BaseException``, uses a
  bare ``except``, or broadly catches ``Exception``, and can complete
  without re-raising, swallows whatever arrived — including the
  crash-injection suite's ``InjectedCrash`` (a ``BaseException``
  subclass precisely so ``except Exception`` passes it through).  The
  intentional swallows (metric hooks that must never raise, the WAL
  torn-tail scan) are baselined with reasons, so every new one needs a
  review.
"""

from __future__ import annotations

import ast
from typing import Dict, FrozenSet, List, Optional, Sequence, Set, Tuple

from . import dataflow
from .config import CHAIN_OP_NAMES, DURABLE_APPLY_CALLS, WAL_LOG_CALLS
from .dataflow import CFGNode, FunctionUnit, self_attr, self_call_name
from .findings import Finding

__all__ = ["check_durability_ordering", "check_exception_flow"]


def _ops_like(node: ast.AST) -> bool:
    """True when ``node`` plausibly denotes the file-operations seam:
    the ``os`` module or a ``FileOps``-like object (``ops``,
    ``self._ops``, ``file_ops``...)."""
    if isinstance(node, ast.Name):
        return node.id == "os" or "ops" in node.id.lower()
    if isinstance(node, ast.Attribute):
        return "ops" in node.attr.lower()
    return False


# ----------------------------------------------------------------------
# durability-ordering
# ----------------------------------------------------------------------
class _LoggedAnalysis(dataflow.Analysis):
    """Must-analysis: has a WAL append happened on *every* path here?"""

    def initial(self) -> bool:
        return False

    def join(self, a: bool, b: bool) -> bool:
        return a and b

    def transfer(self, state: bool, node: CFGNode) -> Tuple[bool, bool]:
        out = state
        for sub in dataflow.scan_walk(node):
            if self_call_name(sub) in WAL_LOG_CALLS:
                out = True
        # The exception edge may fire before the log call completed.
        return out, state


class _ChainAnalysis(dataflow.Analysis):
    """State: (synced, pending) — names written through the fsyncing
    seam (must: intersection), and commit renames awaiting their
    directory fsync (may: union)."""

    def initial(self) -> Tuple[FrozenSet[str], FrozenSet[str]]:
        return frozenset(), frozenset()

    def join(self, a, b):
        return a[0] & b[0], a[1] | b[1]

    def transfer(self, state, node):
        synced, pending = state
        for sub in dataflow.scan_walk(node):
            if not isinstance(sub, ast.Call):
                continue
            func = sub.func
            if not isinstance(func, ast.Attribute) or not _ops_like(func.value):
                continue
            if func.attr == "write_file" and sub.args:
                target = sub.args[0]
                if isinstance(target, ast.Name):
                    synced = synced | {target.id}
            elif func.attr == "replace" and sub.args:
                src = sub.args[0]
                if isinstance(src, ast.Name):
                    pending = pending | {src.id}
            elif func.attr == "fsync_dir":
                pending = frozenset()
        return (synced, pending), (synced, pending)


def check_durability_ordering(
    units: Sequence[FunctionUnit], relpath: str
) -> List[Finding]:
    findings: List[Finding] = []
    for unit in units:
        findings.extend(_check_log_then_apply(unit, relpath))
        findings.extend(_check_rename_chain(unit, relpath))
    return findings


def _check_log_then_apply(unit: FunctionUnit, relpath: str) -> List[Finding]:
    logs = any(
        self_call_name(node) in WAL_LOG_CALLS
        for node in dataflow._own_nodes(unit.func)
    )
    if not logs:
        return []
    findings: List[Finding] = []
    cfg = unit.cfg
    states = dataflow.run_forward(cfg, _LoggedAnalysis())
    seen: Set[str] = set()
    for node in cfg.nodes:
        state = states.get(node.index)
        if state is None or state is True:
            continue  # unreachable, or every path here already logged
        for sub in dataflow.scan_walk(node):
            label: Optional[str] = None
            line = node.line
            callee = self_call_name(sub)
            if callee in DURABLE_APPLY_CALLS:
                label = callee
                line = sub.lineno
            elif isinstance(sub, (ast.Assign, ast.AugAssign)):
                targets = (
                    sub.targets if isinstance(sub, ast.Assign) else [sub.target]
                )
                for target in targets:
                    attr = self_attr(target)
                    if attr is None and isinstance(target, ast.Subscript):
                        attr = self_attr(target.value)
                    if attr is not None:
                        label = f"self.{attr}"
                        line = sub.lineno
                        break
            if label is None or label in seen:
                continue
            seen.add(label)
            findings.append(
                Finding(
                    rule="durability-ordering",
                    path=relpath,
                    line=line,
                    message=(
                        f"{unit.qualname} mutates state ({label}) on a path "
                        f"where no WAL append "
                        f"({'/'.join(sorted(WAL_LOG_CALLS))}) has happened "
                        f"yet — a crash here leaves an un-replayable "
                        f"mutation (invariant 7: log then apply)"
                    ),
                    key=f"{relpath}::{unit.qualname}::{label}",
                )
            )
    return findings


def _check_rename_chain(unit: FunctionUnit, relpath: str) -> List[Finding]:
    if unit.name in CHAIN_OP_NAMES:
        return []
    has_replace = any(
        isinstance(node, ast.Call)
        and isinstance(node.func, ast.Attribute)
        and node.func.attr == "replace"
        and _ops_like(node.func.value)
        for node in dataflow._own_nodes(unit.func)
    )
    if not has_replace:
        return []
    findings: List[Finding] = []
    cfg = unit.cfg
    states = dataflow.run_forward(cfg, _ChainAnalysis())
    seen: Set[str] = set()
    for node in cfg.nodes:
        state = states.get(node.index)
        if state is None:
            continue
        synced, _pending = state
        for sub in dataflow.scan_walk(node):
            if not (
                isinstance(sub, ast.Call)
                and isinstance(sub.func, ast.Attribute)
                and sub.func.attr == "replace"
                and _ops_like(sub.func.value)
                and sub.args
                and isinstance(sub.args[0], ast.Name)
            ):
                continue
            src = sub.args[0].id
            if src in synced or src in seen:
                continue
            seen.add(src)
            findings.append(
                Finding(
                    rule="durability-ordering",
                    path=relpath,
                    line=sub.lineno,
                    message=(
                        f"{unit.qualname} commits {src!r} with a rename "
                        f"without first writing it through the fsyncing "
                        f"write_file seam on every path — a crash can "
                        f"publish an unsynced file (invariant 8: temp-write "
                        f"-> fsync -> replace -> dir-fsync)"
                    ),
                    key=f"{relpath}::{unit.qualname}::replace:{src}",
                )
            )
    exit_state = states.get(cfg.exit.index)
    if exit_state is not None:
        for label in sorted(exit_state[1]):
            findings.append(
                Finding(
                    rule="durability-ordering",
                    path=relpath,
                    line=unit.func.lineno,
                    message=(
                        f"{unit.qualname} commits a rename ({label}) but no "
                        f"directory fsync (fsync_dir) follows on every "
                        f"normal path out — the rename itself may not "
                        f"survive a crash (invariant 8)"
                    ),
                    key=f"{relpath}::{unit.qualname}::dirsync:{label}",
                )
            )
    return findings


# ----------------------------------------------------------------------
# exception-flow
# ----------------------------------------------------------------------
def _handler_label(handler: ast.ExceptHandler) -> Optional[str]:
    """"bare" / "BaseException" / "Exception" when the handler is broad
    enough to swallow injected faults, else None."""
    if handler.type is None:
        return "bare"
    elts = (
        handler.type.elts
        if isinstance(handler.type, ast.Tuple)
        else [handler.type]
    )
    names = set()
    for elt in elts:
        if isinstance(elt, ast.Name):
            names.add(elt.id)
        elif isinstance(elt, ast.Attribute):
            names.add(elt.attr)
    for broad in ("BaseException", "Exception"):
        if broad in names:
            return broad
    return None


def _always_raises(stmts: Sequence[ast.stmt]) -> bool:
    """True when the statement list cannot complete normally — every
    execution re-raises (conservatively computed)."""
    for stmt in stmts:
        if isinstance(stmt, ast.Raise):
            return True
        if isinstance(stmt, (ast.Return, ast.Break, ast.Continue)):
            return False
        if isinstance(stmt, ast.If):
            if stmt.orelse and _always_raises(stmt.body) and _always_raises(
                stmt.orelse
            ):
                return True
        elif isinstance(stmt, (ast.With, ast.AsyncWith)):
            if _always_raises(stmt.body):
                return True
    return False


def check_exception_flow(tree: ast.AST, relpath: str) -> List[Finding]:
    findings: List[Finding] = []
    units = dataflow.module_units(tree)
    scopes: List[Tuple[str, ast.AST]] = [("<module>", tree)]
    scopes.extend((unit.qualname, unit.func) for unit in units)
    for qual, scope in scopes:
        counters: Dict[str, int] = {}
        own = (
            dataflow._own_nodes(scope)
            if not isinstance(scope, ast.Module)
            else _module_own_nodes(scope)
        )
        handlers = sorted(
            (n for n in own if isinstance(n, ast.ExceptHandler)),
            key=lambda n: (n.lineno, n.col_offset),
        )
        for node in handlers:
            label = _handler_label(node)
            if label is None:
                continue
            counters[label] = counters.get(label, 0) + 1
            if _always_raises(node.body):
                continue
            if label == "Exception":
                message = (
                    f"{qual} swallows Exception without re-raising — "
                    f"errors vanish here; narrow the handler or baseline "
                    f"it with a reason"
                )
            else:
                what = (
                    "uses a bare except"
                    if label == "bare"
                    else "catches BaseException"
                )
                message = (
                    f"{qual} {what} and can complete without re-raising — "
                    f"this would swallow InjectedCrash and void the "
                    f"crash-injection proofs"
                )
            findings.append(
                Finding(
                    rule="exception-flow",
                    path=relpath,
                    line=node.lineno,
                    message=message,
                    key=f"{relpath}::{qual}::{label}#{counters[label]}",
                )
            )
    return findings


def _module_own_nodes(tree: ast.Module) -> List[ast.AST]:
    """Module-level nodes outside any function (class bodies included —
    their handlers belong to no function scope)."""
    out: List[ast.AST] = []
    stack: List[ast.AST] = list(ast.iter_child_nodes(tree))
    while stack:
        node = stack.pop()
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            continue
        out.append(node)
        stack.extend(ast.iter_child_nodes(node))
    return out
