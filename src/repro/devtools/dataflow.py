"""Per-function control-flow graphs and the forward abstract walker.

Everything path-sensitive in ``repro lint`` — the held-lock simulation
(:mod:`~repro.devtools.locklint`), resource lifecycles
(:mod:`~repro.devtools.lifecycle`) and the durability-ordering rules
(:mod:`~repro.devtools.ordering`) — runs on the one CFG built here, so
there is a single model of branches, loops, ``with`` releases,
``try/except/finally`` and early exits instead of three ad-hoc AST
walks.

The graph is statement-granular.  Each :class:`CFGNode` carries

* ``succ`` — normal-completion successors;
* ``exc`` — exception successors (the node raised mid-execution);
* ``scan`` — the AST fragments an analysis should inspect for this
  node (an ``If`` head scans only its test, a ``with``-enter scans only
  its context expression, a simple statement scans itself).

Three distinguished nodes frame every function: ``entry``, ``exit``
(normal completion / ``return``) and ``raise-exit`` (an exception
escaped the function).  An analysis reads its verdicts out of the
fixpoint in-states at those exits.

Modelling decisions, chosen to keep the rules sound for their
direction of approximation:

* ``finally`` bodies are duplicated: one copy on the normal path, one
  shared copy for every abrupt path (exception, ``return``, ``break``,
  ``continue``).  The shared abrupt copy merges states that cannot
  co-occur at runtime — conservative (may report an infeasible path),
  never unsound for the may-leak and must-held analyses built on top.
* ``with`` releases are explicit ``with-exit`` nodes, duplicated the
  same way, so a lock or resource acquired by a ``with`` item is
  released on *every* path out of the block — including ``return`` and
  exception paths, matching ``__exit__`` semantics.
* An exception edge exposes the state *before* the node's additions
  (acquires) but *after* its removals (releases): an acquire that
  itself raises never acquired, while a release in a ``finally`` has
  released even when a later statement raises.  Analyses express this
  through :meth:`Analysis.transfer` returning ``(out, exc_out)``.

The interprocedural layer is deliberately one level deep:
:func:`class_summaries` records, per method, which lock-ish attributes
its ``with`` items acquire, which acquire-call it directly returns and
which ``self.<helper>()`` methods it invokes, so the rules can
propagate held-lock and acquired-resource facts through the private
helpers the old per-function walkers went blind on — without a global
call-graph fixpoint.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from typing import (
    Callable,
    Dict,
    Iterable,
    Iterator,
    List,
    Optional,
    Sequence,
    Set,
    Tuple,
    TypeVar,
)

__all__ = [
    "CFG",
    "CFGNode",
    "FunctionUnit",
    "MethodSummary",
    "build_cfg",
    "class_summaries",
    "module_units",
    "run_forward",
    "scan_walk",
    "self_attr",
    "self_call_name",
]

_S = TypeVar("_S")

_FUNC_DEFS = (ast.FunctionDef, ast.AsyncFunctionDef)
_TRY_TYPES = (ast.Try,) + ((ast.TryStar,) if hasattr(ast, "TryStar") else ())


@dataclass
class CFGNode:
    """One statement-level program point.

    ``kind`` is one of ``entry`` / ``exit`` / ``raise-exit`` / ``stmt``
    / ``test`` / ``for`` / ``with-enter`` / ``with-exit`` / ``dispatch``
    / ``except`` / ``join``.  ``ref`` points at the owning compound
    statement where one exists (the ``With`` for with-enter/exit
    nodes), so an analysis can pair acquisitions with their releases.
    """

    kind: str
    index: int
    line: int = 0
    scan: Tuple[ast.AST, ...] = ()
    ref: Optional[ast.AST] = None
    succ: List["CFGNode"] = field(default_factory=list)
    exc: List["CFGNode"] = field(default_factory=list)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<CFGNode #{self.index} {self.kind} L{self.line}>"


@dataclass
class CFG:
    """The graph for one function body."""

    nodes: List[CFGNode]
    entry: CFGNode
    exit: CFGNode
    raise_exit: CFGNode


class Analysis:
    """Protocol for a forward dataflow analysis over a :class:`CFG`.

    Implementations provide a bottom/initial state, a join, and a
    transfer returning ``(normal_out, exception_out)``.  States must be
    hashable-comparable values (frozensets, tuples); ``join`` receives
    ``None`` for a not-yet-reached predecessor contribution.
    """

    def initial(self) -> object:
        raise NotImplementedError

    def join(self, a: object, b: object) -> object:
        raise NotImplementedError

    def transfer(self, state: object, node: CFGNode) -> Tuple[object, object]:
        raise NotImplementedError


# ----------------------------------------------------------------------
# Builder
# ----------------------------------------------------------------------
@dataclass
class _LoopFrame:
    break_join: CFGNode
    continue_join: CFGNode


@dataclass
class _TryFrame:
    """An active ``try`` body: exceptions route to its dispatch node."""

    dispatch: CFGNode


@dataclass
class _CleanupFrame:
    """A ``finally`` body or a ``with`` release that abrupt exits
    (exception / return / break / continue) must pass through before
    continuing outward.  ``parent`` is the context in which the
    continuation resolves once the cleanup has run."""

    ftype: str  # "finally" | "with"
    stmt: ast.stmt
    parent: Tuple[object, ...]
    abrupt_entry: Optional[CFGNode] = None
    pending: Set[str] = field(default_factory=set)


class _Builder:
    def __init__(self, func: ast.AST):
        self._func = func
        self.nodes: List[CFGNode] = []
        self.entry = self._mk("entry")
        self.exit = self._mk("exit")
        self.raise_exit = self._mk("raise-exit")

    def _mk(
        self,
        kind: str,
        line: int = 0,
        scan: Sequence[ast.AST] = (),
        ref: Optional[ast.AST] = None,
    ) -> CFGNode:
        node = CFGNode(
            kind=kind, index=len(self.nodes), line=line,
            scan=tuple(scan), ref=ref,
        )
        self.nodes.append(node)
        return node

    @staticmethod
    def _connect(frontier: Iterable[CFGNode], target: CFGNode) -> None:
        for node in frontier:
            if target not in node.succ:
                node.succ.append(target)

    def build(self) -> CFG:
        frontier = self._body(self._func.body, [self.entry], ())
        self._connect(frontier, self.exit)
        return CFG(
            nodes=self.nodes, entry=self.entry,
            exit=self.exit, raise_exit=self.raise_exit,
        )

    # -- abrupt-exit routing -------------------------------------------
    def _route(self, kind: str, ctx: Tuple[object, ...]) -> CFGNode:
        """The node an abrupt exit of ``kind`` ("exc" / "return" /
        "break" / "continue") flows to from context ``ctx``, threading
        through every cleanup frame on the way out."""
        for frame in reversed(ctx):
            if isinstance(frame, _TryFrame):
                if kind == "exc":
                    return frame.dispatch
                continue
            if isinstance(frame, _LoopFrame):
                if kind == "break":
                    return frame.break_join
                if kind == "continue":
                    return frame.continue_join
                continue
            if isinstance(frame, _CleanupFrame):
                frame.pending.add(kind)
                if frame.abrupt_entry is None:
                    if frame.ftype == "with":
                        frame.abrupt_entry = self._mk(
                            "with-exit", frame.stmt.lineno, ref=frame.stmt
                        )
                    else:
                        frame.abrupt_entry = self._mk(
                            "join", frame.stmt.lineno, ref=frame.stmt
                        )
                return frame.abrupt_entry
        if kind == "exc":
            return self.raise_exit
        return self.exit  # return (or malformed break/continue)

    def _close_cleanup(self, frame: _CleanupFrame) -> None:
        """Build the shared abrupt copy of a cleanup and fan it out to
        every destination that was routed through it."""
        if frame.abrupt_entry is None:
            return
        if frame.ftype == "with":
            tail: List[CFGNode] = [frame.abrupt_entry]
        else:
            tail = self._body(
                frame.stmt.finalbody, [frame.abrupt_entry], frame.parent
            )
        for kind in sorted(frame.pending):
            self._connect(tail, self._route(kind, frame.parent))

    # -- statement dispatch --------------------------------------------
    def _body(
        self,
        stmts: Sequence[ast.stmt],
        frontier: List[CFGNode],
        ctx: Tuple[object, ...],
    ) -> List[CFGNode]:
        for stmt in stmts:
            frontier = self._stmt(stmt, frontier, ctx)
        return frontier

    def _stmt(
        self,
        stmt: ast.stmt,
        frontier: List[CFGNode],
        ctx: Tuple[object, ...],
    ) -> List[CFGNode]:
        if isinstance(stmt, ast.If):
            return self._if(stmt, frontier, ctx)
        if isinstance(stmt, (ast.While, ast.For, ast.AsyncFor)):
            return self._loop(stmt, frontier, ctx)
        if isinstance(stmt, (ast.With, ast.AsyncWith)):
            return self._with(stmt, frontier, ctx)
        if isinstance(stmt, _TRY_TYPES):
            return self._try(stmt, frontier, ctx)
        if isinstance(stmt, ast.Return):
            node = self._mk("stmt", stmt.lineno, [stmt])
            self._connect(frontier, node)
            node.exc.append(self._route("exc", ctx))
            self._connect([node], self._route("return", ctx))
            return []
        if isinstance(stmt, ast.Raise):
            node = self._mk("stmt", stmt.lineno, [stmt])
            self._connect(frontier, node)
            node.exc.append(self._route("exc", ctx))
            return []
        if isinstance(stmt, (ast.Break, ast.Continue)):
            node = self._mk("stmt", stmt.lineno, [stmt])
            self._connect(frontier, node)
            kind = "break" if isinstance(stmt, ast.Break) else "continue"
            self._connect([node], self._route(kind, ctx))
            return []
        # Simple statement (assignment, expression, assert, nested def,
        # import, ...).  Nested function/class bodies are *not* scanned
        # here — they become their own FunctionUnits.
        scan: Sequence[ast.AST] = [stmt]
        if isinstance(stmt, _FUNC_DEFS + (ast.ClassDef,)):
            scan = []
        node = self._mk("stmt", stmt.lineno, scan)
        self._connect(frontier, node)
        node.exc.append(self._route("exc", ctx))
        return [node]

    def _if(
        self, stmt: ast.If, frontier: List[CFGNode], ctx: Tuple[object, ...]
    ) -> List[CFGNode]:
        head = self._mk("test", stmt.lineno, [stmt.test], ref=stmt)
        self._connect(frontier, head)
        head.exc.append(self._route("exc", ctx))
        body_out = self._body(stmt.body, [head], ctx)
        if stmt.orelse:
            else_out = self._body(stmt.orelse, [head], ctx)
            return body_out + else_out
        return body_out + [head]

    def _loop(
        self,
        stmt: ast.stmt,
        frontier: List[CFGNode],
        ctx: Tuple[object, ...],
    ) -> List[CFGNode]:
        if isinstance(stmt, ast.While):
            head = self._mk("test", stmt.lineno, [stmt.test], ref=stmt)
        else:
            head = self._mk("for", stmt.lineno, [stmt.target, stmt.iter], ref=stmt)
        self._connect(frontier, head)
        head.exc.append(self._route("exc", ctx))
        frame = _LoopFrame(
            break_join=self._mk("join", stmt.lineno, ref=stmt),
            continue_join=self._mk("join", stmt.lineno, ref=stmt),
        )
        body_out = self._body(stmt.body, [head], ctx + (frame,))
        self._connect(body_out, head)
        self._connect([frame.continue_join], head)
        if stmt.orelse:
            else_out = self._body(stmt.orelse, [head], ctx)
            return else_out + [frame.break_join]
        return [head, frame.break_join]

    def _with(
        self,
        stmt: ast.stmt,
        frontier: List[CFGNode],
        ctx: Tuple[object, ...],
    ) -> List[CFGNode]:
        frame = _CleanupFrame(ftype="with", stmt=stmt, parent=ctx)
        inner = ctx + (frame,)
        for item in stmt.items:
            scan: List[ast.AST] = [item.context_expr]
            if item.optional_vars is not None:
                scan.append(item.optional_vars)
            enter = self._mk("with-enter", stmt.lineno, scan, ref=stmt)
            self._connect(frontier, enter)
            # An acquire that raises routes through the shared release
            # node: items acquired so far are released, the raising one
            # never acquired (its transfer exposes the pre-state).
            enter.exc.append(self._route("exc", inner))
            frontier = [enter]
        body_out = self._body(stmt.body, frontier, inner)
        normal_exit = self._mk("with-exit", stmt.lineno, ref=stmt)
        self._connect(body_out, normal_exit)
        self._close_cleanup(frame)
        return [normal_exit]

    def _try(
        self,
        stmt: ast.stmt,
        frontier: List[CFGNode],
        ctx: Tuple[object, ...],
    ) -> List[CFGNode]:
        fin_frame: Optional[_CleanupFrame] = None
        outer = ctx
        if stmt.finalbody:
            fin_frame = _CleanupFrame(ftype="finally", stmt=stmt, parent=ctx)
            outer = ctx + (fin_frame,)
        out: List[CFGNode] = []
        if stmt.handlers:
            dispatch = self._mk("dispatch", stmt.lineno, ref=stmt)
            body_out = self._body(
                stmt.body, frontier, outer + (_TryFrame(dispatch),)
            )
            caught_all = False
            for handler in stmt.handlers:
                scan = [handler.type] if handler.type is not None else []
                hnode = self._mk("except", handler.lineno, scan, ref=handler)
                dispatch.succ.append(hnode)
                hnode.exc.append(self._route("exc", outer))
                out.extend(self._body(handler.body, [hnode], outer))
                if handler.type is None or _is_catch_all(handler.type):
                    caught_all = True
            if not caught_all:
                dispatch.succ.append(self._route("exc", outer))
        else:
            body_out = self._body(stmt.body, frontier, outer)
        if stmt.orelse:
            out.extend(self._body(stmt.orelse, body_out, outer))
        else:
            out.extend(body_out)
        if fin_frame is not None:
            out = self._body(stmt.finalbody, out, ctx)
            self._close_cleanup(fin_frame)
        return out


def _is_catch_all(type_expr: ast.expr) -> bool:
    names = set()
    if isinstance(type_expr, ast.Tuple):
        elts = type_expr.elts
    else:
        elts = [type_expr]
    for elt in elts:
        if isinstance(elt, ast.Name):
            names.add(elt.id)
        elif isinstance(elt, ast.Attribute):
            names.add(elt.attr)
    return "BaseException" in names


def build_cfg(func: ast.AST) -> CFG:
    """Build the statement-granular CFG for one function body."""
    return _Builder(func).build()


# ----------------------------------------------------------------------
# Fixpoint walker
# ----------------------------------------------------------------------
def run_forward(cfg: CFG, analysis: Analysis) -> Dict[int, object]:
    """Run ``analysis`` to fixpoint; return ``{node.index: in_state}``.

    Unreachable nodes have no entry — a reporting pass must skip them.
    The lattices the rules use are finite (sets over program facts) and
    the joins monotone, so the worklist terminates.
    """
    states: Dict[int, object] = {cfg.entry.index: analysis.initial()}
    worklist: List[CFGNode] = [cfg.entry]
    pending = {cfg.entry.index}
    while worklist:
        node = worklist.pop()
        pending.discard(node.index)
        in_state = states[node.index]
        out_state, exc_state = analysis.transfer(in_state, node)
        for succ, state in [(s, out_state) for s in node.succ] + [
            (s, exc_state) for s in node.exc
        ]:
            current = states.get(succ.index)
            joined = state if current is None else analysis.join(current, state)
            if current is None or joined != current:
                states[succ.index] = joined
                if succ.index not in pending:
                    pending.add(succ.index)
                    worklist.append(succ)
    return states


def scan_walk(node: CFGNode) -> Iterator[ast.AST]:
    """Every AST node an analysis should inspect for ``node`` —
    the ``scan`` fragments walked without descending into nested
    function definitions (those are separate units).  Lambdas and
    comprehensions *are* descended into: they run inline."""
    stack: List[ast.AST] = list(node.scan)
    while stack:
        current = stack.pop()
        yield current
        if isinstance(current, _FUNC_DEFS + (ast.ClassDef,)):
            continue
        stack.extend(ast.iter_child_nodes(current))


# ----------------------------------------------------------------------
# Function units
# ----------------------------------------------------------------------
@dataclass
class FunctionUnit:
    """One analyzable function: a module function, a method, or a
    nested ``def`` (which may run on another thread)."""

    qualname: str
    func: ast.AST
    cls: Optional[ast.ClassDef]
    #: The outermost enclosing function — for a nested def, the method
    #: it is defined in; for a method, itself.  Rules that key messages
    #: or aliases off "the method" use this.
    root: ast.AST
    _cfg: Optional[CFG] = None

    @property
    def name(self) -> str:
        return self.func.name

    @property
    def method_name(self) -> str:
        return self.root.name

    @property
    def cfg(self) -> CFG:
        if self._cfg is None:
            self._cfg = build_cfg(self.func)
        return self._cfg


def module_units(tree: ast.AST) -> List[FunctionUnit]:
    """Every function in ``tree`` as a :class:`FunctionUnit`, in source
    order, with dotted qualnames (``Cls.method.nested``)."""
    units: List[FunctionUnit] = []

    def walk(
        node: ast.AST,
        prefix: str,
        cls: Optional[ast.ClassDef],
        root: Optional[ast.AST],
    ) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, _FUNC_DEFS):
                qual = f"{prefix}{child.name}"
                units.append(
                    FunctionUnit(
                        qualname=qual, func=child, cls=cls,
                        root=root if root is not None else child,
                    )
                )
                walk(child, f"{qual}.", cls, root if root is not None else child)
            elif isinstance(child, ast.ClassDef):
                # A class nested in a function scopes its methods to
                # itself; `root` resets because those methods are not
                # inline code of the enclosing function.
                walk(child, f"{prefix}{child.name}.", child, None)
            else:
                walk(child, prefix, cls, root)

    walk(tree, "", None, None)
    return units


# ----------------------------------------------------------------------
# One-level interprocedural summaries
# ----------------------------------------------------------------------
@dataclass
class MethodSummary:
    """What one method does that its callers should know about."""

    #: ``self.<attr>`` (or local-alias) lock-ish attributes acquired by
    #: a ``with`` anywhere in the method body (nested defs excluded).
    acquires: Set[str] = field(default_factory=set)
    #: Resource kind of an acquire-call the method *returns* directly
    #: (``return self._ops.open_append(p)``), or None.
    returns_kind: Optional[str] = None
    #: Names of ``self.<m>()`` methods invoked (the one-level call graph).
    calls: Set[str] = field(default_factory=set)


def _own_nodes(func: ast.AST) -> Iterator[ast.AST]:
    stack: List[ast.AST] = list(ast.iter_child_nodes(func))
    while stack:
        node = stack.pop()
        yield node
        if not isinstance(node, _FUNC_DEFS + (ast.Lambda, ast.ClassDef)):
            stack.extend(ast.iter_child_nodes(node))


def self_attr(node: ast.AST) -> Optional[str]:
    """``attr`` when ``node`` is ``self.<attr>``, else None."""
    if (
        isinstance(node, ast.Attribute)
        and isinstance(node.value, ast.Name)
        and node.value.id == "self"
    ):
        return node.attr
    return None


def self_call_name(node: ast.AST) -> Optional[str]:
    """``name`` when ``node`` is a ``self.<name>(...)`` call, else None."""
    if isinstance(node, ast.Call):
        return self_attr(node.func)
    return None


def class_summaries(
    cls: ast.ClassDef,
    is_lock: Callable[[str], bool],
    acquire_kind: Callable[[ast.expr], Optional[str]],
) -> Dict[str, MethodSummary]:
    """Per-method summaries for one class.

    ``is_lock`` comes from the lock configuration,
    ``acquire_kind`` classifies a call expression against the resource
    pair table.  Only direct methods of ``cls`` are summarized — the
    propagation is one level deep by design.
    """
    summaries: Dict[str, MethodSummary] = {}
    for item in cls.body:
        if not isinstance(item, _FUNC_DEFS):
            continue
        summary = MethodSummary()
        aliases: Dict[str, str] = {}
        for node in _own_nodes(item):
            if (
                isinstance(node, ast.Assign)
                and len(node.targets) == 1
                and isinstance(node.targets[0], ast.Name)
            ):
                attr = self_attr(node.value)
                if attr is not None and is_lock(attr):
                    aliases[node.targets[0].id] = attr
        for node in _own_nodes(item):
            if isinstance(node, (ast.With, ast.AsyncWith)):
                for with_item in node.items:
                    expr = with_item.context_expr
                    attr = self_attr(expr)
                    if attr is None and isinstance(expr, ast.Name):
                        attr = aliases.get(expr.id)
                    if attr is not None and is_lock(attr):
                        summary.acquires.add(attr)
            elif isinstance(node, ast.Return) and node.value is not None:
                kind = acquire_kind(node.value)
                if kind is not None:
                    summary.returns_kind = kind
            elif isinstance(node, ast.Call):
                attr = self_attr(node.func)
                if attr is not None:
                    summary.calls.add(attr)
        summaries[item.name] = summary
    return summaries
