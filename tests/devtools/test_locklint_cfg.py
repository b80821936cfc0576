"""Lock-discipline tests specific to the CFG port: multi-item ``with``
statements and locks acquired inside private helpers — the two
patterns the old per-function walker went blind on — plus the store
subclass whose guarded fields the base class declares."""

import ast
from pathlib import Path

import repro.index.sharded as sharded_module
from repro.devtools import dataflow
from repro.devtools.locklint import LockLint, lint_lock_discipline

PREAMBLE = "import threading\n\n\n"


def _lint(body):
    source = PREAMBLE + body
    tree = ast.parse(source)
    lint = LockLint()
    lint.add_module(tree, source, "mod.py", dataflow.module_units(tree))
    return lint.finalize()


def _keys(findings, rule):
    return {f.key for f in findings if f.rule == rule}


class TestMultiItemWith:
    def test_declared_order_in_one_statement_is_silent(self):
        findings = _lint(
            "class C:\n"
            "    def __init__(self):\n"
            "        self._mutex = threading.Lock()\n"
            "        self._io_lock = threading.Lock()\n"
            "    def both(self):\n"
            "        with self._mutex, self._io_lock:\n"
            "            return 1\n"
        )
        assert _keys(findings, "lock-order") == set()

    def test_inverted_order_in_one_statement_flagged(self):
        findings = _lint(
            "class C:\n"
            "    def __init__(self):\n"
            "        self._mutex = threading.Lock()\n"
            "        self._io_lock = threading.Lock()\n"
            "    def both(self):\n"
            "        with self._io_lock, self._mutex:\n"
            "            return 1\n"
        )
        assert "_io_lock->_mutex@declared" in _keys(findings, "lock-order")

    def test_multi_item_conflicts_with_nested_elsewhere(self):
        # a->b recorded from the single with statement, b->a from the
        # nested pair: an inversion across the two methods.
        findings = _lint(
            "class C:\n"
            "    def __init__(self):\n"
            "        self._alpha_lock = threading.Lock()\n"
            "        self._beta_lock = threading.Lock()\n"
            "    def one(self):\n"
            "        with self._alpha_lock, self._beta_lock:\n"
            "            return 1\n"
            "    def two(self):\n"
            "        with self._beta_lock:\n"
            "            with self._alpha_lock:\n"
            "                return 2\n"
        )
        keys = _keys(findings, "lock-order")
        assert any("_alpha_lock<->_beta_lock" in k for k in keys)


class TestLockInHelper:
    def test_helper_acquisition_contributes_edge(self):
        findings = _lint(
            "class C:\n"
            "    def __init__(self):\n"
            "        self._mutex = threading.Lock()\n"
            "        self._io_lock = threading.Lock()\n"
            "    def _grab(self):\n"
            "        with self._mutex:\n"
            "            return 1\n"
            "    def outer(self):\n"
            "        with self._io_lock:\n"
            "            return self._grab()\n"
        )
        assert "_io_lock->_mutex@declared" in _keys(findings, "lock-order")

    def test_reentrant_helper_under_same_lock_is_silent(self):
        findings = _lint(
            "class C:\n"
            "    def __init__(self):\n"
            "        self._mutex = threading.Lock()\n"
            "    def _grab(self):\n"
            "        with self._mutex:\n"
            "            return 1\n"
            "    def outer(self):\n"
            "        with self._mutex:\n"
            "            return self._grab()\n"
        )
        assert _keys(findings, "lock-order") == set()

    def test_helper_without_caller_lock_is_silent(self):
        findings = _lint(
            "class C:\n"
            "    def __init__(self):\n"
            "        self._mutex = threading.Lock()\n"
            "    def _grab(self):\n"
            "        with self._mutex:\n"
            "            return 1\n"
            "    def outer(self):\n"
            "        return self._grab()\n"
        )
        assert _keys(findings, "lock-order") == set()


class TestStoreSubclassDiscipline:
    """The guarded fields a store subclass reassigns keep their
    ``guarded-by`` annotations there, so dropping the mutex from a
    subclass method is caught even though the base declares them."""

    SHARDED = Path(sharded_module.__file__)
    LOCKED_LOADS = (
        "        with self._mutex:\n"
        "            return tuple(\n"
        "                sum(len(bucket) for _, bucket in self._tree.range_scan(lo, hi))\n"
        "                for lo, hi in self._shards\n"
        "            )\n"
    )
    UNLOCKED_LOADS = (
        "        return tuple(\n"
        "            sum(len(bucket) for _, bucket in self._tree.range_scan(lo, hi))\n"
        "            for lo, hi in self._shards\n"
        "        )\n"
    )

    def _lint_copy(self, tmp_path, source):
        path = tmp_path / "sharded.py"
        path.write_text(source)
        return lint_lock_discipline([path], repo_root=tmp_path)

    def test_sharded_store_copy_is_clean(self, tmp_path):
        assert self._lint_copy(tmp_path, self.SHARDED.read_text()) == []

    def test_dropping_the_mutex_in_shard_loads_is_flagged(self, tmp_path):
        source = self.SHARDED.read_text()
        assert source.count(self.LOCKED_LOADS) == 1
        seeded = source.replace(self.LOCKED_LOADS, self.UNLOCKED_LOADS)
        findings = self._lint_copy(tmp_path, seeded)
        assert [(f.rule, f.key) for f in findings] == [
            (
                "unguarded-access",
                "sharded.py::ShardedSFCIndex.shard_loads::_shards",
            )
        ]
