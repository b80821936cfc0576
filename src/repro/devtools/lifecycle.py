"""Resource-lifecycle analysis: acquire/release balance on every path.

Generalizes the historical ``span-balance`` rule onto the shared CFG of
:mod:`repro.devtools.dataflow`: anything acquired through a call in the
:data:`~repro.devtools.config.RESOURCE_PAIRS` table — a floating trace
span, a ``Cursor``, a WAL or page-file handle, a raw ``os.open`` fd —
must reach its release on every CFG path out of the acquiring function,
exception edges included.

The span row reports under the historical ``span-balance`` rule name
with the historical keys and messages (the baseline and the seeded
fixture predate the CFG port); every other row reports as
``resource-lifecycle``.

Per function the tracking is:

* ``var = acquire(...)`` and ``with acquire(...) as var`` start a
  tracked resource; a ``with`` releases its own items on every exit
  path by construction (the CFG's ``with-exit`` nodes).
* ``var.close()`` / ``var.end()`` / ``os.close(var)`` release it.
* For rows with ``escapes=True``, handing the resource away — ``return
  var``, ``yield var``, ``self.attr = var``, passing ``var`` as a call
  argument, storing it in a literal container — transfers ownership and
  ends local tracking.  A call to a ``FileOps`` primitive
  (:data:`~repro.devtools.config.CHAIN_OP_NAMES`: ``write``, ``fsync``
  ...) only borrows the handle.  The span row keeps the strict
  historical contract (a local span must be ended locally).
* A bare ``acquire(...)`` expression statement discards the only handle
  — flagged outright, nothing can ever release it.

Cross-method, a resource parked on ``self`` (``self._span =
open_span(...)``, ``self._handle = ops.open_append(...)``) requires
*some* method of the class to call its release, directly or through a
local alias — the ``PlanStream._finalize`` pattern.  One level of
interprocedural summary lets ``x = self._open_helper()`` count as an
acquisition when the helper directly returns an acquire call.

Functions whose *name* is an acquire name (``FileOps.open_append``, a
module-level ``open_span``) are the providers the table points at, not
consumers — they are exempt.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass
from typing import Dict, FrozenSet, List, Optional, Sequence, Set, Tuple

from . import dataflow
from .config import CHAIN_OP_NAMES, RESOURCE_PAIRS, ResourcePair
from .dataflow import CFGNode, FunctionUnit, self_attr
from .findings import Finding

__all__ = ["check_resource_lifecycle"]

_FUNC_DEFS = (ast.FunctionDef, ast.AsyncFunctionDef)

#: (line, col) of the acquire call — identifies one acquisition site.
_Site = Tuple[int, int]


def _call_name(call: ast.Call) -> Tuple[Optional[str], Optional[str]]:
    """``(name, receiver)`` of a call: ``os.open(...)`` -> ("open",
    "os"), ``open_span(...)`` -> ("open_span", None)."""
    func = call.func
    if isinstance(func, ast.Name):
        return func.id, None
    if isinstance(func, ast.Attribute):
        receiver = func.value.id if isinstance(func.value, ast.Name) else None
        return func.attr, receiver
    return None, None


def _acquire_pair(node: ast.AST) -> Optional[ResourcePair]:
    """The resource pair ``node`` acquires, or None."""
    if not isinstance(node, ast.Call):
        return None
    name, receiver = _call_name(node)
    if name is None:
        return None
    for pair in RESOURCE_PAIRS:
        if pair.suffix:
            matched = any(name.endswith(acq) for acq in pair.acquires)
        else:
            matched = name in pair.acquires
        if matched and (not pair.receivers or receiver in pair.receivers):
            return pair
    return None


def _is_provider(name: str) -> bool:
    """True when ``name`` is itself an acquire name — the function
    *implements* the acquisition the table describes."""
    for pair in RESOURCE_PAIRS:
        if pair.suffix and any(name.endswith(acq) for acq in pair.acquires):
            return True
        if not pair.suffix and name in pair.acquires:
            return True
    return False


@dataclass(frozen=True)
class _Acq:
    """One statically tracked acquisition site inside a function."""

    site: _Site
    pair: ResourcePair
    var: Optional[str]
    line: int


def _collect_acquires(
    unit: FunctionUnit, returns_kind: Dict[str, ResourcePair]
) -> Dict[_Site, _Acq]:
    """Every locally tracked acquisition in ``unit``'s own statements:
    ``var = acquire()`` assignments and ``with acquire() as var`` items.
    Discards and self-stores are handled structurally elsewhere."""
    acquires: Dict[_Site, _Acq] = {}

    def classify(value: ast.AST) -> Optional[ResourcePair]:
        pair = _acquire_pair(value)
        if pair is not None:
            return pair
        # One-level interprocedural: self._helper() returning an
        # acquire call counts as the acquisition itself.
        if isinstance(value, ast.Call):
            attr = self_attr(value.func)
            if attr is not None and attr in returns_kind:
                return returns_kind[attr]
        return None

    for node in dataflow.own_nodes(unit.func):
        if isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            value = node.value
            if value is None:
                continue
            pair = classify(value)
            if pair is None:
                continue
            names = [t.id for t in targets if isinstance(t, ast.Name)]
            if not names:
                continue  # self.attr = acquire() — the stored-attr check owns it
            site = (value.lineno, value.col_offset)
            acquires[site] = _Acq(
                site=site, pair=pair, var=names[0], line=node.lineno
            )
        elif isinstance(node, (ast.With, ast.AsyncWith)):
            for item in node.items:
                pair = classify(item.context_expr)
                if pair is None:
                    continue
                var = (
                    item.optional_vars.id
                    if isinstance(item.optional_vars, ast.Name)
                    else None
                )
                site = (item.context_expr.lineno, item.context_expr.col_offset)
                acquires[site] = _Acq(
                    site=site, pair=pair, var=var, line=node.lineno
                )
    return acquires


# ----------------------------------------------------------------------
# The CFG analysis
# ----------------------------------------------------------------------
#: State tokens: ("r", kind, site) — live resource; ("b", var, kind,
#: site) — local name bound to it.  May-analysis: join is union, so a
#: resource live on *any* path into a point is live there.
_State = FrozenSet[Tuple]


class _LifecycleAnalysis(dataflow.Analysis):
    def __init__(self, acquires: Dict[_Site, _Acq]):
        self._acquires = acquires
        self._with_sites: Dict[int, Set[_Site]] = {}
        self._pairs = {acq.pair.kind: acq.pair for acq in acquires.values()}

    def initial(self) -> _State:
        return frozenset()

    def join(self, a: _State, b: _State) -> _State:
        return a | b

    def _sites_of_with(self, with_node: ast.AST) -> Set[_Site]:
        key = id(with_node)
        if key not in self._with_sites:
            sites = set()
            for item in with_node.items:
                site = (item.context_expr.lineno, item.context_expr.col_offset)
                if site in self._acquires:
                    sites.add(site)
            self._with_sites[key] = sites
        return self._with_sites[key]

    def transfer(self, state: _State, node: CFGNode) -> Tuple[_State, _State]:
        dropped: Set[Tuple] = set()
        added: Set[Tuple] = set()
        bindings: Dict[str, List[Tuple[str, _Site]]] = {}
        for token in state:
            if token[0] == "b":
                bindings.setdefault(token[1], []).append((token[2], token[3]))

        def release_var(var: str) -> None:
            for kind, site in bindings.get(var, []):
                dropped.add(("r", kind, site))
                dropped.add(("b", var, kind, site))

        def unbind_var(var: str) -> None:
            for kind, site in bindings.get(var, []):
                dropped.add(("b", var, kind, site))

        if node.kind == "with-exit" and node.ref is not None:
            for site in self._sites_of_with(node.ref):
                for token in state:
                    if token[0] == "r" and token[2] == site:
                        dropped.add(token)
                    elif token[0] == "b" and token[3] == site:
                        dropped.add(token)

        for sub in dataflow.scan_walk(node):
            # Releases: var.close() / var.end() / os.close(var).
            if isinstance(sub, ast.Call):
                name, receiver = _call_name(sub)
                if (
                    receiver is not None
                    and receiver in bindings
                    and name is not None
                    and any(
                        name in kind_pair.releases
                        for kind_pair in self._pair_candidates(receiver, bindings)
                    )
                ):
                    release_var(receiver)
                if name is not None and sub.args:
                    arg0 = sub.args[0]
                    if isinstance(arg0, ast.Name) and arg0.id in bindings:
                        for kind, site in bindings[arg0.id]:
                            pair = self._pairs[kind]
                            if (
                                name in pair.release_funcs
                                and (not pair.receivers or receiver in pair.receivers)
                            ):
                                dropped.add(("r", kind, site))
                                dropped.add(("b", arg0.id, kind, site))
            # Escapes (ownership transfer), for rows that allow them.
            for var in _escaping_names(sub):
                for kind, site in bindings.get(var, []):
                    if self._pairs[kind].escapes:
                        dropped.add(("r", kind, site))
                        dropped.add(("b", var, kind, site))
            # Rebinding a tracked name orphans the old resource: the
            # binding dies, the liveness token stays (still leaked).
            if isinstance(sub, (ast.Assign, ast.AnnAssign)):
                targets = (
                    sub.targets if isinstance(sub, ast.Assign) else [sub.target]
                )
                for target in targets:
                    if isinstance(target, ast.Name):
                        unbind_var(target.id)
            elif isinstance(sub, (ast.For, ast.AsyncFor)):
                if isinstance(sub.target, ast.Name):
                    unbind_var(sub.target.id)

        mid = frozenset(token for token in state if token not in dropped)

        # Additions: tracked acquisitions and alias copies.
        mid_bindings: Dict[str, List[Tuple[str, _Site]]] = {}
        for token in mid:
            if token[0] == "b":
                mid_bindings.setdefault(token[1], []).append((token[2], token[3]))
        for sub in dataflow.scan_walk(node):
            if isinstance(sub, (ast.Assign, ast.AnnAssign)):
                value = sub.value
                targets = (
                    sub.targets if isinstance(sub, ast.Assign) else [sub.target]
                )
                names = [t.id for t in targets if isinstance(t, ast.Name)]
                if value is None or not names:
                    continue
                site = (value.lineno, value.col_offset)
                if site in self._acquires:
                    acq = self._acquires[site]
                    added.add(("r", acq.pair.kind, site))
                    added.add(("b", names[0], acq.pair.kind, site))
                elif isinstance(value, ast.Name) and value.id in mid_bindings:
                    for kind, bound_site in mid_bindings[value.id]:
                        for name in names:
                            added.add(("b", name, kind, bound_site))
        if node.kind == "with-enter":
            for sub in node.scan:
                if isinstance(sub, ast.expr):
                    site = (sub.lineno, sub.col_offset)
                    if site in self._acquires:
                        acq = self._acquires[site]
                        added.add(("r", acq.pair.kind, site))
                        if acq.var is not None:
                            added.add(("b", acq.var, acq.pair.kind, site))

        return mid | added, mid

    def _pair_candidates(
        self, var: str, bindings: Dict[str, List[Tuple[str, _Site]]]
    ) -> List[ResourcePair]:
        return [self._pairs[kind] for kind, _ in bindings.get(var, [])]


def _escaping_names(node: ast.AST) -> Set[str]:
    """Bare names ``node`` hands away: returned/yielded, passed as a
    call argument (a ``FileOps`` primitive only borrows it), stored
    into a container literal or onto an object."""
    escaped: Set[str] = set()
    if isinstance(node, ast.Return) and node.value is not None:
        escaped |= {
            n.id for n in ast.walk(node.value) if isinstance(n, ast.Name)
        }
    elif isinstance(node, (ast.Yield, ast.YieldFrom)) and node.value is not None:
        escaped |= {
            n.id for n in ast.walk(node.value) if isinstance(n, ast.Name)
        }
    elif isinstance(node, ast.Call) and _call_name(node)[0] not in CHAIN_OP_NAMES:
        for arg in node.args:
            if isinstance(arg, ast.Name):
                escaped.add(arg.id)
            elif isinstance(arg, ast.Starred) and isinstance(arg.value, ast.Name):
                escaped.add(arg.value.id)
        for keyword in node.keywords:
            if isinstance(keyword.value, ast.Name):
                escaped.add(keyword.value.id)
    elif isinstance(node, (ast.List, ast.Tuple, ast.Set)):
        escaped |= {e.id for e in node.elts if isinstance(e, ast.Name)}
    elif isinstance(node, ast.Dict):
        escaped |= {
            v.id for v in node.values if v is not None and isinstance(v, ast.Name)
        }
    elif isinstance(node, ast.Assign):
        if isinstance(node.value, ast.Name) and any(
            not isinstance(t, ast.Name) for t in node.targets
        ):
            escaped.add(node.value.id)
    return escaped


# ----------------------------------------------------------------------
# Findings
# ----------------------------------------------------------------------
def check_resource_lifecycle(
    tree: ast.AST, units: Sequence[FunctionUnit], relpath: str
) -> List[Finding]:
    """All lifecycle findings for one module: stored-on-self resources
    without a releasing method, locally leaked resources (CFG), and
    discarded acquire results."""
    findings: List[Finding] = []
    findings.extend(_check_stored_resources(tree, relpath))

    returns_kind_by_class: Dict[int, Dict[str, ResourcePair]] = {}
    for unit in units:
        if _is_provider(unit.name):
            continue
        returns_kind: Dict[str, ResourcePair] = {}
        if unit.cls is not None:
            key = id(unit.cls)
            if key not in returns_kind_by_class:
                returns_kind_by_class[key] = _returns_kind(unit.cls)
            returns_kind = returns_kind_by_class[key]
        findings.extend(_check_unit(unit, relpath, returns_kind))
    return findings


def _returns_kind(cls: ast.ClassDef) -> Dict[str, ResourcePair]:
    """``{method_name: pair}`` for methods directly returning an
    acquire call — the one-level summary consumers resolve against."""
    summary: Dict[str, ResourcePair] = {}
    for item in cls.body:
        if not isinstance(item, _FUNC_DEFS) or _is_provider(item.name):
            continue
        for node in dataflow.own_nodes(item):
            if isinstance(node, ast.Return) and node.value is not None:
                pair = _acquire_pair(node.value)
                if pair is not None:
                    summary[item.name] = pair
    return summary


def _check_unit(
    unit: FunctionUnit, relpath: str, returns_kind: Dict[str, ResourcePair]
) -> List[Finding]:
    findings: List[Finding] = []
    qual = unit.qualname

    # Discarded acquire results: nothing can ever release them.
    for stmt in dataflow.own_nodes(unit.func):
        if isinstance(stmt, ast.Expr):
            pair = _acquire_pair(stmt.value)
            if pair is None:
                continue
            if pair.kind == "span":
                findings.append(
                    Finding(
                        rule=pair.rule,
                        path=relpath,
                        line=stmt.lineno,
                        message=(
                            f"{qual} discards the open_span result — nothing "
                            f"can ever end the span"
                        ),
                        key=f"{relpath}::{qual}::discard",
                    )
                )
            else:
                findings.append(
                    Finding(
                        rule=pair.rule,
                        path=relpath,
                        line=stmt.lineno,
                        message=(
                            f"{qual} discards the {pair.kind} it acquires — "
                            f"nothing can ever call "
                            f"{'/'.join(pair.releases)}() on it"
                        ),
                        key=f"{relpath}::{qual}::{pair.kind}:discard",
                    )
                )

    acquires = _collect_acquires(unit, returns_kind)
    if not acquires:
        return findings

    cfg = unit.cfg
    states = dataflow.run_forward(cfg, _LifecycleAnalysis(acquires))
    leaked: Dict[_Site, bool] = {}
    for exit_node in (cfg.exit, cfg.raise_exit):
        state = states.get(exit_node.index)
        if state is None:
            continue
        for token in state:
            if token[0] == "r":
                site = token[2]
                exceptional = exit_node.kind == "raise-exit"
                leaked[site] = leaked.get(site, True) and exceptional

    for site in sorted(leaked):
        acq = acquires[site]
        only_exceptional = leaked[site]
        var = acq.var if acq.var is not None else f"<anonymous@{acq.line}>"
        if acq.pair.kind == "span":
            findings.append(
                Finding(
                    rule=acq.pair.rule,
                    path=relpath,
                    line=acq.line,
                    message=(
                        f"{qual} opens floating span {var!r} without ending "
                        f"it in a finally — an exception in between leaks "
                        f"the span"
                    ),
                    key=f"{relpath}::{qual}::{var}",
                )
            )
        else:
            path_desc = (
                "the exception path leaks it"
                if only_exceptional
                else "a path reaches function exit without releasing it"
            )
            findings.append(
                Finding(
                    rule=acq.pair.rule,
                    path=relpath,
                    line=acq.line,
                    message=(
                        f"{qual} acquires {acq.pair.kind} {var!r} but "
                        f"{path_desc} — call "
                        f"{'/'.join(acq.pair.releases)}() on every path "
                        f"(a finally, or a with block)"
                    ),
                    key=f"{relpath}::{qual}::{acq.pair.kind}:{var}",
                )
            )
    return findings


def _check_stored_resources(tree: ast.AST, relpath: str) -> List[Finding]:
    """Resources parked on ``self`` need some method of the class to
    release them — the historical span-balance part (a), generalized to
    every pair in the table."""
    findings: List[Finding] = []
    for cls in (n for n in ast.walk(tree) if isinstance(n, ast.ClassDef)):
        methods = {
            item.name: item for item in cls.body if isinstance(item, _FUNC_DEFS)
        }
        stored: Dict[str, Tuple[int, ResourcePair]] = {}
        for func in methods.values():
            for node in dataflow.own_nodes(func):
                if isinstance(node, ast.Assign):
                    pair = _acquire_pair(node.value)
                    if pair is None:
                        continue
                    for target in node.targets:
                        attr = self_attr(target)
                        if attr is not None and attr not in stored:
                            stored[attr] = (node.lineno, pair)
        if not stored:
            continue
        released: Set[str] = set()
        for func in methods.values():
            aliases: Dict[str, str] = {}  # local name -> stored attr
            for node in dataflow.own_nodes(func):
                if isinstance(node, ast.Assign):
                    attr = self_attr(node.value)
                    if attr in stored:
                        for target in node.targets:
                            if isinstance(target, ast.Name):
                                aliases[target.id] = attr
            for node in dataflow.own_nodes(func):
                if not (
                    isinstance(node, ast.Call)
                    and isinstance(node.func, ast.Attribute)
                ):
                    continue
                receiver = node.func.value
                attr = self_attr(receiver)
                if attr is None and isinstance(receiver, ast.Name):
                    attr = aliases.get(receiver.id)
                if attr in stored and node.func.attr in stored[attr][1].releases:
                    released.add(attr)
        for attr, (lineno, pair) in sorted(stored.items()):
            if attr in released:
                continue
            if pair.kind == "span":
                findings.append(
                    Finding(
                        rule=pair.rule,
                        path=relpath,
                        line=lineno,
                        message=(
                            f"{cls.name} stores an open_span in self.{attr} "
                            f"but no method ever calls its .end() — the span "
                            f"leaks (stays live) on every path"
                        ),
                        key=f"{relpath}::{cls.name}.{attr}",
                    )
                )
            else:
                findings.append(
                    Finding(
                        rule=pair.rule,
                        path=relpath,
                        line=lineno,
                        message=(
                            f"{cls.name} stores a {pair.kind} in self.{attr} "
                            f"but no method ever calls its "
                            f"{'/'.join(pair.releases)}() — it leaks on "
                            f"every path"
                        ),
                        key=f"{relpath}::{cls.name}.{attr}::{pair.kind}",
                    )
                )
    return findings
