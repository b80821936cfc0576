"""CFG lock-discipline analysis: guarded fields and lock order.

Two rules, both driven by the annotation convention in
:mod:`repro.devtools.annotations` and both running as one must-held
dataflow analysis over the shared CFG of
:mod:`repro.devtools.dataflow`:

* ``unguarded-access`` — a read or write of a field annotated
  ``# guarded-by: <lock>`` outside a ``with self.<lock>:`` block (and
  outside methods declared ``@guarded_by("<lock>")`` — those are the
  helpers whose *callers* hold the lock).  ``__init__`` is exempt:
  construction happens before the object is shared.  A class's
  methods are held to its own guarded fields and to its bases', each
  base resolved by name among every analyzed class (a name two
  classes share resolves to neither), so this rule runs in
  ``finalize``, once every file's classes are known.
* ``lock-order`` — the acquisition graph.  Acquiring lock B while
  holding lock A records the edge A→B; a cycle within one class scope,
  or any edge contradicting the repo's declared global order
  (:data:`~repro.devtools.config.DECLARED_LOCK_ORDER`), is deadlock
  potential and gets flagged.  Lock identity is scoped: the global
  names (``_mutex``, ``_io_lock``) mean the same lock everywhere, while
  a leaf class's private ``_lock`` never aliases another class's.

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
from typing import Dict, FrozenSet, List, Optional, Sequence, Set, Tuple

from . import dataflow
from .annotations import GUARDED_BY_COMMENT
from .config import DECLARED_LOCK_ORDER, GLOBAL_LOCKS
from .dataflow import CFGNode, FunctionUnit, self_attr
from .findings import Finding

__all__ = ["LockLint"]

_GUARD_RE = re.compile(re.escape(GUARDED_BY_COMMENT) + r"\s*([A-Za-z_][A-Za-z0-9_]*)")

#: Name fragments that make a ``self.<attr>`` look like a lock, so
#: ``with self.<attr>:`` is treated as an acquisition even without a
#: ``threading.Lock()`` assignment in view (e.g. a subclass taking the
#: lock its base class's constructor created).
_LOCKISH = ("lock", "mutex", "guard")


def _is_lock(name: str) -> bool:
    """A global lock name, or an attribute named like a lock."""
    lowered = name.lower()
    return name in GLOBAL_LOCKS or any(fragment in lowered for fragment in _LOCKISH)


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
    #: Base class names as written (the last part of a dotted base).
    bases: List[str] = field(default_factory=list)


@dataclass
class _Access:
    """One ``self.<attr>`` access in a method, with the locks every path
    to it holds.  ``line`` and ``col`` name the source site: ``finally``
    bodies are duplicated in the CFG, and each site reports once."""

    attr: str
    line: int
    col: int
    held: FrozenSet[str]


@dataclass
class _MethodAccesses:
    """Every ``self.<attr>`` access of one unit of ``model``'s methods."""

    model: _ClassModel
    qualname: str
    method_name: str
    accesses: List[_Access] = field(default_factory=list)


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
    for base in cls.bases:
        if isinstance(base, ast.Name):
            model.bases.append(base.id)
        elif isinstance(base, ast.Attribute):
            model.bases.append(base.attr)
    for node in ast.walk(cls):
        targets: List[ast.expr] = []
        if isinstance(node, ast.Assign):
            targets = node.targets
        elif isinstance(node, ast.AnnAssign):
            targets = [node.target]
        else:
            continue
        for target in targets:
            attr = self_attr(target)
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
    """Accumulates per-file analysis, then reports the cross-file rules.

    Usage: ``add_module`` every parsed source file, then ``finalize``
    for the combined findings (unguarded accesses checked against each
    class's and its bases' guarded fields, and the global graph checks).
    """

    def __init__(self) -> None:
        self._edges: List[_Edge] = []
        self._models: List[_ClassModel] = []
        self._methods: List[_MethodAccesses] = []

    # ------------------------------------------------------------------
    # Per-file analysis
    # ------------------------------------------------------------------
    def add_module(
        self,
        tree: ast.AST,
        source: str,
        relpath: str,
        units: Sequence[FunctionUnit],
    ) -> None:
        """Analyze one module's field accesses and lock edges (the
        driver parses each file once and shares the tree and units
        across every rule)."""
        comments = _collect_guard_comments(source)
        models: Dict[int, _ClassModel] = {}
        summaries: Dict[int, Dict[str, Set[str]]] = {}
        alias_cache: Dict[int, Dict[str, str]] = {}
        for unit in units:
            if unit.cls is None:
                continue  # module-level functions hold no class locks
            key = id(unit.cls)
            if key not in models:
                models[key] = _build_class_model(unit.cls, relpath, comments)
                self._models.append(models[key])
                summaries[key] = dataflow.class_summaries(unit.cls, is_lock=_is_lock)
            root_key = id(unit.root)
            if root_key not in alias_cache:
                alias_cache[root_key] = self._local_lock_aliases(unit.root)
            self._check_unit(
                unit, models[key], summaries[key], alias_cache[root_key]
            )

    def _local_lock_aliases(self, func: ast.AST) -> Dict[str, str]:
        """``{local_name: lock_attr}`` for ``name = self.<lock>`` bindings."""
        aliases: Dict[str, str] = {}
        for node in ast.walk(func):
            if (
                isinstance(node, ast.Assign)
                and len(node.targets) == 1
                and isinstance(node.targets[0], ast.Name)
            ):
                attr = self_attr(node.value)
                if attr is not None and _is_lock(attr):
                    aliases[node.targets[0].id] = attr
        return aliases

    def _acquired_lock(
        self, expr: ast.expr, local_aliases: Dict[str, str]
    ) -> Optional[str]:
        """The lock name a ``with`` item acquires, or None."""
        if isinstance(expr, ast.Attribute) and _is_lock(expr.attr):
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
        summaries: Dict[str, Set[str]],
        local_aliases: Dict[str, str],
    ) -> None:
        held0 = set(_decorator_guards(unit.func))
        method = _MethodAccesses(model, unit.qualname, unit.method_name)
        if unit.method_name not in ("__init__", "__post_init__"):
            self._methods.append(method)
        cfg = unit.cfg
        analysis = _HeldLockAnalysis(self, held0, local_aliases)
        states = dataflow.run_forward(cfg, analysis)
        for node in cfg.nodes:
            state = states.get(node.index)
            if state is None:
                continue  # unreachable
            held = {name for name, _ in state}
            if node.kind == "with-enter" and node.ref is not None:
                lock = analysis._acquired(node)
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
                attr = self_attr(sub)
                if attr is not None:
                    method.accesses.append(
                        _Access(attr, sub.lineno, sub.col_offset, frozenset(held))
                    )
                if isinstance(sub, ast.Call):
                    # One-level interprocedural: a self._helper() call
                    # site contributes held -> helper-acquired edges.
                    callee = self_attr(sub.func)
                    if callee is not None and callee in summaries:
                        for acquired in sorted(summaries[callee]):
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

    # ------------------------------------------------------------------
    # Cross-file checks
    # ------------------------------------------------------------------
    def _guarded_fields(self) -> Dict[int, Dict[str, str]]:
        """``{id(model): field -> lock}``: each class's guarded fields and
        its bases', a class's own annotation winning over a base's.

        Bases resolve by name among the analyzed classes; a name that
        is not unique, or not analyzed, contributes nothing.
        """
        by_name: Dict[str, List[_ClassModel]] = {}
        for model in self._models:
            by_name.setdefault(model.name, []).append(model)
        resolved: Dict[int, Dict[str, str]] = {}

        def fields(model: _ClassModel, visiting: FrozenSet[int]) -> Dict[str, str]:
            if id(model) in resolved:
                return resolved[id(model)]
            merged: Dict[str, str] = {}
            for name in model.bases:
                found = by_name.get(name, [])
                if len(found) == 1 and id(found[0]) not in visiting:
                    merged.update(fields(found[0], visiting | {id(model)}))
            merged.update(model.guarded)
            resolved[id(model)] = merged
            return merged

        for model in self._models:
            fields(model, frozenset())
        return resolved

    def _unguarded_findings(self) -> List[Finding]:
        """The ``unguarded-access`` rule over every analyzed method."""
        guarded = self._guarded_fields()
        findings: List[Finding] = []
        for method in self._methods:
            model = method.model
            fields = guarded[id(model)]
            flagged: Set[Tuple[int, int]] = set()
            for access in method.accesses:
                lock = fields.get(access.attr)
                site = (access.line, access.col)
                if lock is None or lock in access.held or site in flagged:
                    continue
                flagged.add(site)
                findings.append(
                    Finding(
                        rule="unguarded-access",
                        path=model.path,
                        line=access.line,
                        message=(
                            f"{model.name}.{method.method_name} accesses "
                            f"self.{access.attr} (guarded by {lock}) "
                            f"without holding the lock"
                        ),
                        key=f"{model.path}::{method.qualname}::{access.attr}",
                    )
                )
        return findings

    def finalize(self) -> List[Finding]:
        """The unguarded-access rule (which needs every file's classes)
        and the acquisition-graph verdicts."""
        findings = self._unguarded_findings()
        order_index = {name: i for i, name in enumerate(DECLARED_LOCK_ORDER)}
        # Scope-local inversion: both directions observed between the
        # same two locks (global names compare globally, private names
        # only within their class scope).
        seen: Dict[Tuple[str, str, str], _Edge] = {}
        reported: Set[Tuple[str, str, str]] = set()
        for edge in self._edges:
            scope_key = (
                "<global>"
                if edge.held in GLOBAL_LOCKS and edge.acquired in GLOBAL_LOCKS
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
                            f"declared order {' -> '.join(DECLARED_LOCK_ORDER)}"
                        ),
                        key=f"{a}->{b}@declared",
                    )
                )
        return findings

