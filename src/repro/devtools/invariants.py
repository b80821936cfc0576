"""Repo-specific invariant rules beyond lock discipline.

Four rules, each encoding a bug class this codebase has actually had to
defend against in its hammer suites (the path-sensitive ``span-balance``
rule lives in :mod:`repro.devtools.lifecycle` since the CFG port):

* ``epoch-bump`` — any method that installs a layout
  (``self._layout = <something non-None>``) must also bump the plan
  cache epoch in the same method: either ``self._epoch += 1`` /
  ``self._epoch = ...`` directly, or by delegating to
  ``self._install_layout(...)`` which does.  A layout swap without an
  epoch bump silently serves stale plans built for the old curve.
* ``notify-once`` — streaming result classes (anything with both a
  ``close()`` method and a generator method) must notify the workload
  recorder exactly once per stream lifetime: every method calling a
  notifier (``record_executed`` or the executor's ``_report``, see
  :data:`~repro.devtools.config.NOTIFY_CALLS`) carries an idempotence
  guard (``if self._flag: return`` … ``self._flag = True``),
  ``close()`` reaches a notifier, and every generator notifies from a
  ``finally`` so abandoned or raising streams still count.  Double-notify skews
  the adaptive controller's drift statistics; missing notify starves
  them.
* ``mutable-default`` — ``def f(x, acc=[])`` / ``acc={}`` / ``acc=set()``
  defaults are shared across calls; in a codebase whose planners and
  recorders are long-lived singletons this is cross-query state bleed.
* ``curve-matrix-gap`` — every curve name registered in
  ``repro.curves.registry`` must appear in at least one test curve
  matrix (module-level ``ALL_CURVE_SPECS`` / ``CURVE_NAMES`` / …
  assignment under ``tests/``), or be baselined with a reason.  A curve
  that ships without riding the differential matrices is untested
  against the reference scans.
"""

from __future__ import annotations

import ast
from pathlib import Path
from typing import Iterable, List, Optional, Sequence, Set, Tuple

from .config import MATRIX_VARIABLE_NAMES, NOTIFY_CALLS
from .dataflow import FunctionUnit, own_nodes, self_attr, self_call_name
from .findings import Finding

__all__ = [
    "check_curve_matrices",
    "check_epoch_bumps",
    "check_mutable_defaults",
    "check_notify_once",
]

_MUTABLE_LITERALS = (ast.List, ast.Dict, ast.Set, ast.ListComp, ast.DictComp, ast.SetComp)
_MUTABLE_CTORS = {"list", "dict", "set", "bytearray", "deque", "defaultdict", "Counter"}


# ----------------------------------------------------------------------
# epoch-bump
# ----------------------------------------------------------------------
def check_epoch_bumps(units: Sequence[FunctionUnit], relpath: str) -> List[Finding]:
    """Flag layout installs that never bump the plan-cache epoch."""
    findings: List[Finding] = []
    for unit in units:
        qual, func = unit.qualname, unit.func
        if func.name == "__init__":
            continue  # constructor wiring precedes any cached plan
        installs_layout: Optional[int] = None
        bumps_epoch = False
        for node in own_nodes(func):
            if isinstance(node, ast.Assign):
                for target in node.targets:
                    attr = self_attr(target)
                    if attr == "_layout" and not (
                        isinstance(node.value, ast.Constant)
                        and node.value.value is None
                    ):
                        installs_layout = node.lineno
                    if attr == "_epoch":
                        bumps_epoch = True
            elif isinstance(node, ast.AugAssign):
                if self_attr(node.target) == "_epoch":
                    bumps_epoch = True
            elif self_call_name(node) == "_install_layout":
                bumps_epoch = True
        if installs_layout is not None and not bumps_epoch:
            findings.append(
                Finding(
                    rule="epoch-bump",
                    path=relpath,
                    line=installs_layout,
                    message=(
                        f"{qual} installs self._layout without bumping "
                        f"self._epoch — the plan cache will serve plans "
                        f"built for the old layout"
                    ),
                    key=f"{relpath}::{qual}",
                )
            )
    return findings


# ----------------------------------------------------------------------
# notify-once
# ----------------------------------------------------------------------
def _is_generator(func: ast.FunctionDef) -> bool:
    return any(isinstance(n, (ast.Yield, ast.YieldFrom)) for n in own_nodes(func))


def _calls_notify(nodes: Iterable[ast.AST]) -> bool:
    for node in nodes:
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute):
            if node.func.attr in NOTIFY_CALLS:
                return True
    return False


def _has_once_guard(func: ast.FunctionDef) -> bool:
    """True when ``func`` bails on a flag it also sets: the idempotence
    pattern ``if self._x: return`` … ``self._x = True``."""
    bail_flags: Set[str] = set()
    set_flags: Set[str] = set()
    for node in own_nodes(func):
        if isinstance(node, ast.If):
            test = node.test
            attr = self_attr(test)
            if attr is not None and any(
                isinstance(stmt, ast.Return) for stmt in node.body
            ):
                bail_flags.add(attr)
        if isinstance(node, ast.Assign):
            for target in node.targets:
                attr = self_attr(target)
                if (
                    attr is not None
                    and isinstance(node.value, ast.Constant)
                    and node.value.value is True
                ):
                    set_flags.add(attr)
    return bool(bail_flags & set_flags)


def check_notify_once(tree: ast.AST, relpath: str) -> List[Finding]:
    """Enforce the exactly-once recorder contract on streaming classes."""
    findings: List[Finding] = []
    for cls in (n for n in ast.walk(tree) if isinstance(n, ast.ClassDef)):
        methods = {
            item.name: item
            for item in cls.body
            if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef))
        }
        generators = {name: f for name, f in methods.items() if _is_generator(f)}
        close = methods.get("close")
        if close is None or not generators:
            continue  # not a streaming result class — out of scope
        notifiers = {
            name
            for name, f in methods.items()
            if _calls_notify(own_nodes(f))
        }
        if not notifiers:
            continue  # streams that never talk to a recorder
        # (a) every direct notifier must carry the idempotence guard.
        for name in sorted(notifiers):
            if not _has_once_guard(methods[name]):
                findings.append(
                    Finding(
                        rule="notify-once",
                        path=relpath,
                        line=methods[name].lineno,
                        message=(
                            f"{cls.name}.{name} notifies the recorder without "
                            f"an if-recorded guard — close()+exhaustion would "
                            f"notify it twice"
                        ),
                        key=f"{relpath}::{cls.name}.{name}::guard",
                    )
                )
        # (b) close() must reach a notifier.
        def reaches_notifier(func: ast.FunctionDef, seen: Set[str]) -> bool:
            if func.name in notifiers:
                return True
            for node in own_nodes(func):
                callee = self_call_name(node)
                if callee in methods and callee not in seen:
                    if reaches_notifier(methods[callee], seen | {callee}):
                        return True
            return False

        if not reaches_notifier(close, {"close"}):
            findings.append(
                Finding(
                    rule="notify-once",
                    path=relpath,
                    line=close.lineno,
                    message=(
                        f"{cls.name}.close() never notifies the recorder — "
                        f"an abandoned stream is invisible to the adaptive "
                        f"controller"
                    ),
                    key=f"{relpath}::{cls.name}.close",
                )
            )
        # (c) every generator notifies from a finally, so exhaustion,
        # raising predicates, and GC'd abandoned streams all count.
        for name, func in sorted(generators.items()):
            protected = False
            for node in own_nodes(func):
                if isinstance(node, ast.Try) and node.finalbody:
                    final_calls = [
                        n for stmt in node.finalbody for n in ast.walk(stmt)
                    ]
                    for call in final_calls:
                        callee = self_call_name(call)
                        if callee in notifiers or _calls_notify([call]):
                            protected = True
            if not protected:
                findings.append(
                    Finding(
                        rule="notify-once",
                        path=relpath,
                        line=func.lineno,
                        message=(
                            f"{cls.name}.{name} yields without a finally-"
                            f"notifier — a raising or abandoned stream never "
                            f"reaches the recorder"
                        ),
                        key=f"{relpath}::{cls.name}.{name}::finally",
                    )
                )
    return findings


# ----------------------------------------------------------------------
# mutable-default
# ----------------------------------------------------------------------
def _is_mutable_default(node: ast.AST) -> bool:
    if isinstance(node, _MUTABLE_LITERALS):
        return True
    if isinstance(node, ast.Call):
        func = node.func
        name = func.id if isinstance(func, ast.Name) else (
            func.attr if isinstance(func, ast.Attribute) else None
        )
        return name in _MUTABLE_CTORS
    return False


def check_mutable_defaults(units: Sequence[FunctionUnit], relpath: str) -> List[Finding]:
    """Flag mutable default argument values (shared across calls)."""
    findings: List[Finding] = []
    for unit in units:
        qual, args = unit.qualname, unit.func.args
        positional = args.posonlyargs + args.args
        pairs: List[Tuple[str, Optional[ast.expr]]] = []
        # defaults right-align with the positional args.
        for arg, default in zip(positional[len(positional) - len(args.defaults):], args.defaults):
            pairs.append((arg.arg, default))
        pairs.extend(zip((a.arg for a in args.kwonlyargs), args.kw_defaults))
        for arg_name, default in pairs:
            if default is not None and _is_mutable_default(default):
                findings.append(
                    Finding(
                        rule="mutable-default",
                        path=relpath,
                        line=default.lineno,
                        message=(
                            f"{qual} has a mutable default for {arg_name!r} — "
                            f"the object is shared across every call"
                        ),
                        key=f"{relpath}::{qual}::{arg_name}",
                    )
                )
    return findings


# ----------------------------------------------------------------------
# curve-matrix-gap
# ----------------------------------------------------------------------
def registered_curves(registry_path: Path) -> List[str]:
    """Curve names from the ``_REGISTRY`` dict literal, by static parse."""
    tree = ast.parse(registry_path.read_text(), filename=str(registry_path))
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign):
            names = [t.id for t in node.targets if isinstance(t, ast.Name)]
            value = node.value
        elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
            names = [node.target.id]
            value = node.value
        else:
            continue
        if "_REGISTRY" in names and isinstance(value, ast.Dict):
            return [
                key.value
                for key in value.keys
                if isinstance(key, ast.Constant) and isinstance(key.value, str)
            ]
    return []


def matrix_curves(test_paths: Iterable[Path]) -> Set[str]:
    """Every string literal inside a module-level matrix assignment."""
    found: Set[str] = set()
    for path in test_paths:
        try:
            tree = ast.parse(path.read_text(), filename=str(path))
        except SyntaxError:
            continue
        for node in tree.body:
            if not isinstance(node, ast.Assign):
                continue
            names = [t.id for t in node.targets if isinstance(t, ast.Name)]
            if not any(name in MATRIX_VARIABLE_NAMES for name in names):
                continue
            for literal in ast.walk(node.value):
                if isinstance(literal, ast.Constant) and isinstance(literal.value, str):
                    found.add(literal.value)
    return found


def check_curve_matrices(
    registry_path: Path,
    test_paths: Sequence[Path],
    registry_relpath: str,
) -> List[Finding]:
    """Every registered curve must ride at least one test matrix."""
    registered = registered_curves(registry_path)
    covered = matrix_curves(test_paths)
    findings: List[Finding] = []
    for name in registered:
        if name not in covered:
            findings.append(
                Finding(
                    rule="curve-matrix-gap",
                    path=registry_relpath,
                    line=0,
                    message=(
                        f"registered curve {name!r} appears in no test curve "
                        f"matrix ({', '.join(sorted(MATRIX_VARIABLE_NAMES))})"
                    ),
                    key=name,
                )
            )
    return findings
