"""Unit tests for the CFG builder and the forward walker — the engine
under every path-sensitive lint rule."""

import ast

import pytest

from repro.devtools import dataflow
from repro.devtools.dataflow import (
    Analysis,
    build_cfg,
    class_summaries,
    module_units,
    run_forward,
    scan_walk,
)


def _func(source):
    tree = ast.parse(source)
    for node in ast.walk(tree):
        if isinstance(node, ast.FunctionDef):
            return node
    raise AssertionError("no function in snippet")


def _kinds(cfg):
    return [node.kind for node in cfg.nodes]


class _AssignedOnAllPaths(Analysis):
    """Must-analysis: names assigned on every path to a point."""

    def initial(self):
        return frozenset()

    def join(self, a, b):
        return a & b

    def transfer(self, state, node):
        out = set(state)
        for sub in scan_walk(node):
            if isinstance(sub, ast.Assign):
                out |= {
                    t.id for t in sub.targets if isinstance(t, ast.Name)
                }
        # The exception edge may fire before the assignment landed.
        return frozenset(out), state


class TestStructure:
    def test_linear_function(self):
        cfg = build_cfg(_func("def f():\n    a = 1\n    b = 2\n"))
        stmts = [n for n in cfg.nodes if n.kind == "stmt"]
        assert [n.line for n in stmts] == [2, 3]
        assert stmts[1].succ == [cfg.exit]
        # Every statement can raise: exc edges lead to raise-exit.
        assert all(n.exc == [cfg.raise_exit] for n in stmts)

    def test_if_both_branches_reach_exit(self):
        cfg = build_cfg(
            _func("def f(x):\n    if x:\n        a = 1\n    else:\n        a = 2\n")
        )
        (head,) = [n for n in cfg.nodes if n.kind == "test"]
        assert len(head.succ) == 2
        assert all(s.succ == [cfg.exit] for s in head.succ)

    def test_return_routes_to_exit_raise_to_raise_exit(self):
        cfg = build_cfg(
            _func("def f(x):\n    if x:\n        return 1\n    raise ValueError\n")
        )
        ret = [n for n in cfg.nodes if n.scan and isinstance(n.scan[0], ast.Return)]
        assert ret[0].succ == [cfg.exit]
        rse = [n for n in cfg.nodes if n.scan and isinstance(n.scan[0], ast.Raise)]
        assert rse[0].succ == []
        assert rse[0].exc == [cfg.raise_exit]

    def test_loop_break_and_continue(self):
        cfg = build_cfg(
            _func(
                "def f(xs):\n"
                "    for x in xs:\n"
                "        if x:\n"
                "            break\n"
                "        continue\n"
                "    done = 1\n"
            )
        )
        (head,) = [n for n in cfg.nodes if n.kind == "for"]
        # The break lands on a join that flows past the loop; the
        # continue's join flows back to the head.
        joins = [n for n in cfg.nodes if n.kind == "join"]
        assert any(head in j.succ for j in joins)  # continue join
        (after,) = [n for n in cfg.nodes if n.kind == "stmt" and n.line == 6]
        assert any(after in j.succ for j in joins)  # break join

    def test_with_exit_on_normal_and_abrupt_paths(self):
        cfg = build_cfg(
            _func(
                "def f(r):\n"
                "    with r:\n"
                "        if r:\n"
                "            return 1\n"
                "        step()\n"
                "    tail = 2\n"
            )
        )
        exits = [n for n in cfg.nodes if n.kind == "with-exit"]
        assert len(exits) == 2  # one normal, one shared abrupt copy
        # The return passes through a with-exit before reaching exit.
        assert any(cfg.exit in e.succ for e in exits)
        # The in-block statement's exception edge also goes through it.
        (step,) = [n for n in cfg.nodes if n.kind == "stmt" and n.line == 5]
        assert step.exc[0].kind == "with-exit"

    def test_finally_duplicated_for_abrupt_exit(self):
        cfg = build_cfg(
            _func(
                "def f():\n"
                "    try:\n"
                "        work()\n"
                "    finally:\n"
                "        cleanup()\n"
            )
        )
        cleanups = [
            n
            for n in cfg.nodes
            if n.scan
            and isinstance(n.scan[0], ast.Expr)
            and n.line == 5
        ]
        assert len(cleanups) == 2  # normal copy + shared abrupt copy
        assert any(cfg.exit in c.succ for c in cleanups)
        assert any(cfg.raise_exit in c.succ for c in cleanups)

    def test_except_handler_catches_and_non_catch_all_escapes(self):
        cfg = build_cfg(
            _func(
                "def f():\n"
                "    try:\n"
                "        work()\n"
                "    except ValueError:\n"
                "        pass\n"
            )
        )
        (dispatch,) = [n for n in cfg.nodes if n.kind == "dispatch"]
        kinds = {s.kind for s in dispatch.succ}
        # A ValueError handler is not catch-all: the dispatch also
        # routes onward to raise-exit.
        assert "except" in kinds
        assert cfg.raise_exit in dispatch.succ

    def test_nested_def_is_not_scanned_inline(self):
        cfg = build_cfg(
            _func("def f():\n    def g():\n        inner()\n    g()\n")
        )
        scanned = [
            sub
            for node in cfg.nodes
            for sub in scan_walk(node)
            if isinstance(sub, ast.Call)
        ]
        names = {c.func.id for c in scanned if isinstance(c.func, ast.Name)}
        assert names == {"g"}  # inner() belongs to g's own unit


class TestFixpoint:
    def test_must_join_drops_one_sided_facts(self):
        cfg = build_cfg(
            _func(
                "def f(x):\n"
                "    a = 1\n"
                "    if x:\n"
                "        b = 2\n"
                "    c = 3\n"
            )
        )
        states = run_forward(cfg, _AssignedOnAllPaths())
        assert states[cfg.exit.index] == {"a", "c"}

    def test_exception_edge_sees_pre_state(self):
        cfg = build_cfg(_func("def f():\n    a = 1\n"))
        states = run_forward(cfg, _AssignedOnAllPaths())
        assert states[cfg.raise_exit.index] == frozenset()
        assert states[cfg.exit.index] == {"a"}

    def test_loop_reaches_fixpoint(self):
        cfg = build_cfg(
            _func("def f(xs):\n    for x in xs:\n        a = 1\n    b = 2\n")
        )
        states = run_forward(cfg, _AssignedOnAllPaths())
        # The loop may run zero times: only b is assigned on all paths.
        assert states[cfg.exit.index] == {"b"}

    def test_unreachable_nodes_have_no_state(self):
        cfg = build_cfg(_func("def f():\n    return 1\n    dead = 2\n"))
        states = run_forward(cfg, _AssignedOnAllPaths())
        (dead,) = [n for n in cfg.nodes if n.line == 3]
        assert dead.index not in states


class TestUnits:
    def test_qualnames_and_roots(self):
        tree = ast.parse(
            "def top():\n"
            "    def inner():\n"
            "        pass\n"
            "class C:\n"
            "    def m(self):\n"
            "        def worker():\n"
            "            pass\n"
        )
        units = {u.qualname: u for u in module_units(tree)}
        assert set(units) == {"top", "top.inner", "C.m", "C.m.worker"}
        assert units["top.inner"].root.name == "top"
        assert units["C.m.worker"].method_name == "m"
        assert units["C.m"].cls.name == "C"
        assert units["top"].cls is None

    def test_class_summaries_acquires_and_calls(self):
        tree = ast.parse(
            "class C:\n"
            "    def helper(self):\n"
            "        lock = self._mutex\n"
            "        with lock:\n"
            "            self._step()\n"
        )
        (cls,) = [n for n in ast.walk(tree) if isinstance(n, ast.ClassDef)]
        summaries = class_summaries(
            cls,
            is_lock=lambda attr: attr.endswith("_mutex"),
            acquire_kind=lambda expr: None,
        )
        assert summaries["helper"].acquires == {"_mutex"}
        assert "_step" in summaries["helper"].calls
