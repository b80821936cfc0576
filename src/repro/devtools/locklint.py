"""CFG lock-discipline analysis: guarded fields, lock order, blocking calls.

Three rules, all driven by the annotation convention in
:mod:`repro.devtools.annotations` and all running as one must-held
dataflow analysis over the shared CFG of
:mod:`repro.devtools.dataflow`:

* ``unguarded-access`` — a read or write of a field annotated
  ``# guarded-by: <lock>`` outside a ``with self.<lock>:`` block (and
  outside methods declared ``@guarded_by("<lock>")`` — those are the
  helpers whose *callers* hold the lock).  ``__init__`` is exempt:
  construction happens before the object is shared.
* ``lock-order`` — the acquisition graph.  Acquiring lock B while
  holding lock A records the edge A→B; a cycle within one class scope,
  or any edge contradicting the repo's declared global order
  (:data:`~repro.devtools.config.DECLARED_LOCK_ORDER`), is deadlock
  potential and gets flagged.  Lock identity is scoped: the global
  names (``_mutex``, ``_io_lock``) mean the same lock everywhere, while
  a leaf class's private ``_lock`` never aliases another class's.
* ``blocking-under-lock`` — calls that park the calling thread
  (``future.result()``, ``thread.join()``, ``pool.shutdown()`` without
  ``wait=False``, ``time.sleep``, ``input``) while any tracked lock is
  held.

Because the held set is computed per CFG node (a must-analysis: a lock
counts as held at a point only when *every* path there holds it), the
rules understand branches, loops, early returns and ``with`` releases
on exception paths for free.  On top of the intraprocedural walk, a
one-level interprocedural summary (:func:`~repro.devtools.dataflow
.class_summaries`) records which lock-ish attributes each method
acquires, so a ``self._helper()`` call site contributes the
``held → helper-acquired`` lock-order edges the old per-function
walker went blind on.  Local lock aliases (``lock = self._io_lock`` …
``with lock:``) are resolved, and lambdas / comprehensions inherit the
enclosing held set while nested ``def``\\ s — code that may run on
another thread — start with only their own declared guards held.
"""

from __future__ import annotations

import ast
import re
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Set, Tuple

from . import dataflow
from .annotations import GUARDED_BY_COMMENT
from .config import (
    BLOCKING_ATTR_CALLS,
    BLOCKING_NAME_CALLS,
    DECLARED_LOCK_ORDER,
    GLOBAL_LOCKS,
)
from .dataflow import CFGNode, FunctionUnit, MethodSummary
from .findings import Finding

__all__ = ["LockLint", "lint_lock_discipline"]

_GUARD_RE = re.compile(re.escape(GUARDED_BY_COMMENT) + r"\s*([A-Za-z_][A-Za-z0-9_]*)")

#: Name fragments that make a ``self.<attr>`` look like a lock, so
#: ``with self.<attr>:`` is treated as an acquisition even without a
#: ``threading.Lock()`` assignment in view (e.g. a subclass taking the
#: lock its base class's constructor created).
_LOCKISH = ("lock", "mutex", "guard")


def _looks_like_lock(name: str) -> bool:
    lowered = name.lower()
    return any(fragment in lowered for fragment in _LOCKISH)


@dataclass
class _Edge:
    """One observed acquisition edge with its site, for reporting."""

    held: str
    acquired: str
    scope: str
    path: str
    line: int


@dataclass
class _ClassModel:
    """Everything the discipline checks need to know about one class."""

    name: str
    path: str
    #: field -> lock that must be held around every access.
    guarded: Dict[str, str] = field(default_factory=dict)
    #: attrs assigned a ``threading.Lock()`` / ``RLock()`` in source.
    locks: Set[str] = field(default_factory=set)


def _decorator_guards(func: ast.AST) -> List[str]:
    """Lock names from a ``@guarded_by("...")`` decorator, if any."""
    guards: List[str] = []
    for decorator in getattr(func, "decorator_list", []):
        if (
            isinstance(decorator, ast.Call)
            and isinstance(decorator.func, ast.Name)
            and decorator.func.id == "guarded_by"
        ):
            guards.extend(
                arg.value
                for arg in decorator.args
                if isinstance(arg, ast.Constant) and isinstance(arg.value, str)
            )
    return guards


def _self_attr(node: ast.AST) -> Optional[str]:
    """``attr`` when ``node`` is ``self.<attr>``, else None."""
    if (
        isinstance(node, ast.Attribute)
        and isinstance(node.value, ast.Name)
        and node.value.id == "self"
    ):
        return node.attr
    return None


def _collect_guard_comments(source: str) -> Dict[int, Tuple[str, bool]]:
    """``{line_number: (lock_name, standalone)}`` for every guard comment.

    ``standalone`` (the whole line is the comment) decides whether the
    annotation may bind to the assignment *below* it; a trailing
    comment only ever binds to its own statement.
    """
    guards: Dict[int, Tuple[str, bool]] = {}
    for lineno, line in enumerate(source.splitlines(), start=1):
        match = _GUARD_RE.search(line)
        if match:
            guards[lineno] = (match.group(1), line.lstrip().startswith("#"))
    return guards


def _is_lock_ctor(node: ast.AST) -> bool:
    """True for ``threading.Lock()`` / ``RLock()`` (bare or dotted)."""
    if not isinstance(node, ast.Call):
        return False
    func = node.func
    name = func.attr if isinstance(func, ast.Attribute) else (
        func.id if isinstance(func, ast.Name) else None
    )
    return name in {"Lock", "RLock"}


def _build_class_model(
    cls: ast.ClassDef, path: str, comments: Dict[int, Tuple[str, bool]]
) -> _ClassModel:
    """Attach guard comments to the fields assigned on (or under) them."""
    model = _ClassModel(name=cls.name, path=path)
    for node in ast.walk(cls):
        targets: List[ast.expr] = []
        if isinstance(node, ast.Assign):
            targets = node.targets
        elif isinstance(node, ast.AnnAssign):
            targets = [node.target]
        else:
            continue
        for target in targets:
            attr = _self_attr(target)
            if attr is None:
                continue
            if isinstance(node, ast.Assign) and _is_lock_ctor(node.value):
                model.locks.add(attr)
            # A guard comment binds to any line of its own (possibly
            # multi-line) assignment, or — when standalone — to the
            # line directly above it.
            start = node.lineno
            end = getattr(node, "end_lineno", start) or start
            for lineno in range(start - 1, end + 1):
                entry = comments.get(lineno)
                if entry is None:
                    continue
                lock, standalone = entry
                if lineno >= start or standalone:
                    model.guarded[attr] = lock
                    break
    return model


#: Held-set state: frozenset of ``(lock, acquisition_site)`` pairs.
#: The site (the owning ``with`` statement, or the decorator marker)
#: lets a ``with-exit`` node release exactly what its ``with`` took,
#: so re-entrant re-acquisition of an already-held lock is a no-op.
_DECORATOR_SITE = -1


class _HeldLockAnalysis(dataflow.Analysis):
    """Must-analysis: which locks does *every* path hold here?"""

    def __init__(self, lint: "LockLint", initial_held: Set[str], aliases: Dict[str, str]):
        self._lint = lint
        self._initial = frozenset(
            (lock, _DECORATOR_SITE) for lock in initial_held
        )
        self._aliases = aliases

    def initial(self):
        return self._initial

    def join(self, a, b):
        return a & b

    def transfer(self, state, node: CFGNode):
        if node.kind == "with-enter":
            lock = self._acquired(node)
            held = {name for name, _ in state}
            if lock is not None and lock not in held:
                return state | {(lock, id(node.ref))}, state
            return state, state
        if node.kind == "with-exit" and node.ref is not None:
            site = id(node.ref)
            out = frozenset(p for p in state if p[1] != site)
            return out, out
        return state, state

    def _acquired(self, node: CFGNode) -> Optional[str]:
        for sub in node.scan:
            if isinstance(sub, ast.expr):
                lock = self._lint._acquired_lock(sub, self._aliases)
                if lock is not None:
                    return lock
        return None


class LockLint:
    """Accumulates per-file analysis, then reports cross-file lock order.

    Usage: ``add_file`` (or ``add_module`` with a pre-parsed tree)
    every source file, then ``finalize`` for the combined findings
    (per-file findings plus the global graph checks).
    """

    def __init__(
        self,
        repo_root: Optional[Path] = None,
        declared_order: Sequence[str] = DECLARED_LOCK_ORDER,
        global_locks: Optional[Set[str]] = None,
    ):
        self._repo_root = repo_root
        self._order = tuple(declared_order)
        self._global = set(GLOBAL_LOCKS if global_locks is None else global_locks)
        self._findings: List[Finding] = []
        self._edges: List[_Edge] = []

    # ------------------------------------------------------------------
    # Per-file analysis
    # ------------------------------------------------------------------
    def add_file(self, path: Path) -> None:
        """Analyze one source file (unguarded access, blocking calls,
        and edge collection for the graph checks in ``finalize``)."""
        source = path.read_text()
        tree = ast.parse(source, filename=str(path))
        self.add_module(tree, source, self._relpath(path))

    def add_module(
        self,
        tree: ast.AST,
        source: str,
        relpath: str,
        units: Optional[Sequence[FunctionUnit]] = None,
    ) -> None:
        """Analyze one pre-parsed module (the driver parses each file
        once and shares the tree and units across every rule)."""
        comments = _collect_guard_comments(source)
        if units is None:
            units = dataflow.module_units(tree)
        models: Dict[int, _ClassModel] = {}
        summaries: Dict[int, Dict[str, MethodSummary]] = {}
        alias_cache: Dict[int, Dict[str, str]] = {}
        for unit in units:
            if unit.cls is None:
                continue  # module-level functions hold no class locks
            key = id(unit.cls)
            if key not in models:
                models[key] = _build_class_model(unit.cls, relpath, comments)
                summaries[key] = dataflow.class_summaries(
                    unit.cls,
                    is_lock=self._is_lock,
                    acquire_kind=lambda expr: None,
                )
            root_key = id(unit.root)
            if root_key not in alias_cache:
                alias_cache[root_key] = self._local_lock_aliases(unit.root)
            self._check_unit(
                unit, models[key], summaries[key], alias_cache[root_key]
            )

    def _relpath(self, path: Path) -> str:
        if self._repo_root is not None:
            try:
                return path.resolve().relative_to(self._repo_root.resolve()).as_posix()
            except ValueError:
                pass
        return path.as_posix()

    def _local_lock_aliases(self, func: ast.AST) -> Dict[str, str]:
        """``{local_name: lock_attr}`` for ``name = self.<lock>`` bindings."""
        aliases: Dict[str, str] = {}
        for node in ast.walk(func):
            if (
                isinstance(node, ast.Assign)
                and len(node.targets) == 1
                and isinstance(node.targets[0], ast.Name)
            ):
                attr = _self_attr(node.value)
                if attr is not None and self._is_lock(attr):
                    aliases[node.targets[0].id] = attr
        return aliases

    def _is_lock(self, model_attr: str) -> bool:
        return model_attr in self._global or _looks_like_lock(model_attr)

    def _acquired_lock(
        self, expr: ast.expr, local_aliases: Dict[str, str]
    ) -> Optional[str]:
        """The lock name a ``with`` item acquires, or None."""
        if isinstance(expr, ast.Attribute) and self._is_lock(expr.attr):
            return expr.attr
        if isinstance(expr, ast.Name) and expr.id in local_aliases:
            return local_aliases[expr.id]
        return None

    # ------------------------------------------------------------------
    # One unit = one CFG fixpoint + one reporting pass
    # ------------------------------------------------------------------
    def _check_unit(
        self,
        unit: FunctionUnit,
        model: _ClassModel,
        summaries: Dict[str, MethodSummary],
        local_aliases: Dict[str, str],
    ) -> None:
        held0 = set(_decorator_guards(unit.func))
        check_guards = unit.method_name not in ("__init__", "__post_init__")
        scope = unit.qualname
        cfg = unit.cfg
        states = dataflow.run_forward(
            cfg, _HeldLockAnalysis(self, held0, local_aliases)
        )
        flagged: Set[int] = set()  # id(ast node) — finally bodies are
        # duplicated in the CFG; each source-level site reports once.
        for node in cfg.nodes:
            state = states.get(node.index)
            if state is None:
                continue  # unreachable
            held = {name for name, _ in state}
            if node.kind == "with-enter" and node.ref is not None:
                lock = None
                for sub in node.scan:
                    if isinstance(sub, ast.expr):
                        lock = self._acquired_lock(sub, local_aliases)
                        if lock is not None:
                            break
                if lock is not None and lock not in held:
                    for already in sorted(held):
                        self._edges.append(
                            _Edge(
                                held=already,
                                acquired=lock,
                                scope=f"{model.path}::{model.name}",
                                path=model.path,
                                line=node.ref.lineno,
                            )
                        )
            for sub in dataflow.scan_walk(node):
                attr = _self_attr(sub)
                if (
                    check_guards
                    and attr is not None
                    and attr in model.guarded
                    and model.guarded[attr] not in held
                    and id(sub) not in flagged
                ):
                    flagged.add(id(sub))
                    self._findings.append(
                        Finding(
                            rule="unguarded-access",
                            path=model.path,
                            line=sub.lineno,
                            message=(
                                f"{model.name}.{unit.method_name} accesses "
                                f"self.{attr} (guarded by "
                                f"{model.guarded[attr]}) without holding "
                                f"the lock"
                            ),
                            key=f"{model.path}::{scope}::{attr}",
                        )
                    )
                if isinstance(sub, ast.Call):
                    if held:
                        blocking = self._blocking_call_name(sub)
                        if blocking is not None and id(sub) not in flagged:
                            flagged.add(id(sub))
                            self._findings.append(
                                Finding(
                                    rule="blocking-under-lock",
                                    path=model.path,
                                    line=sub.lineno,
                                    message=(
                                        f"{model.name}.{unit.method_name} "
                                        f"calls {blocking}() while holding "
                                        f"{', '.join(sorted(held))}"
                                    ),
                                    key=f"{model.path}::{scope}::{blocking}",
                                )
                            )
                    # One-level interprocedural: a self._helper() call
                    # site contributes held -> helper-acquired edges.
                    callee = _self_attr(sub.func)
                    if callee is not None and callee in summaries:
                        for acquired in sorted(summaries[callee].acquires):
                            if acquired in held:
                                continue  # re-entrant, no new edge
                            for already in sorted(held):
                                self._edges.append(
                                    _Edge(
                                        held=already,
                                        acquired=acquired,
                                        scope=f"{model.path}::{model.name}",
                                        path=model.path,
                                        line=sub.lineno,
                                    )
                                )

    @staticmethod
    def _blocking_call_name(node: ast.Call) -> Optional[str]:
        func = node.func
        if isinstance(func, ast.Name) and func.id in BLOCKING_NAME_CALLS:
            return func.id
        if isinstance(func, ast.Attribute) and func.attr in BLOCKING_ATTR_CALLS:
            # "sep".join(...) is string formatting, not thread joining.
            if func.attr == "join" and isinstance(func.value, ast.Constant):
                return None
            if func.attr == "shutdown":
                for keyword in node.keywords:
                    if (
                        keyword.arg == "wait"
                        and isinstance(keyword.value, ast.Constant)
                        and keyword.value.value is False
                    ):
                        return None
            return func.attr
        if isinstance(func, ast.Attribute) and func.attr in BLOCKING_NAME_CALLS:
            return func.attr  # time.sleep and friends, dotted form
        return None

    # ------------------------------------------------------------------
    # Graph checks
    # ------------------------------------------------------------------
    def finalize(self) -> List[Finding]:
        """Per-site findings plus the acquisition-graph verdicts."""
        findings = list(self._findings)
        order_index = {name: i for i, name in enumerate(self._order)}
        # Scope-local inversion: both directions observed between the
        # same two locks (global names compare globally, private names
        # only within their class scope).
        seen: Dict[Tuple[str, str, str], _Edge] = {}
        reported: Set[Tuple[str, str, str]] = set()
        for edge in self._edges:
            scope_key = (
                "<global>"
                if edge.held in self._global and edge.acquired in self._global
                else edge.scope
            )
            seen[(scope_key, edge.held, edge.acquired)] = edge
        for (scope_key, a, b), edge in seen.items():
            reverse = seen.get((scope_key, b, a))
            pair = (scope_key,) + tuple(sorted((a, b)))
            if reverse is not None and a != b and pair not in reported:
                reported.add(pair)
                findings.append(
                    Finding(
                        rule="lock-order",
                        path=edge.path,
                        line=edge.line,
                        message=(
                            f"lock-order inversion: {a}->{b} at {edge.path}:"
                            f"{edge.line} but {b}->{a} at {reverse.path}:"
                            f"{reverse.line} (deadlock potential)"
                        ),
                        key=f"{pair[1]}<->{pair[2]}@{scope_key}",
                    )
                )
            if (
                a in order_index
                and b in order_index
                and order_index[a] > order_index[b]
            ):
                findings.append(
                    Finding(
                        rule="lock-order",
                        path=edge.path,
                        line=edge.line,
                        message=(
                            f"acquires {b} while holding {a}, against the "
                            f"declared order {' -> '.join(self._order)}"
                        ),
                        key=f"{a}->{b}@declared",
                    )
                )
        return findings


def lint_lock_discipline(
    paths: Sequence[Path],
    repo_root: Optional[Path] = None,
    declared_order: Sequence[str] = DECLARED_LOCK_ORDER,
) -> List[Finding]:
    """Run the three lock rules over ``paths`` and return the findings."""
    lint = LockLint(repo_root=repo_root, declared_order=declared_order)
    for path in paths:
        lint.add_file(path)
    return lint.finalize()
