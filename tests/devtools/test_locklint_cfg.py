"""Lock-discipline tests specific to the CFG port: multi-item ``with``
statements and locks acquired inside private helpers — the two
patterns the old per-function walker went blind on — plus the store
subclass whose guarded fields the base class declares."""

import ast
from pathlib import Path

import repro.api.store as store_module
import repro.index.sharded as sharded_module
from repro.devtools import dataflow
from repro.devtools.analyzer import lint_tree
from repro.devtools.locklint import LockLint

PREAMBLE = "import threading\n\n\n"


def _lint(body):
    source = PREAMBLE + body
    tree = ast.parse(source)
    lint = LockLint()
    lint.add_module(tree, source, "mod.py", dataflow.module_units(tree))
    return lint.finalize()


def _keys(findings, rule):
    return {f.key for f in findings if f.rule == rule}


def _lint_dir(root):
    """The lock rules over every module in ``root``, keyed from ``root``."""
    report = lint_tree(
        src=root,
        rules=["unguarded-access", "lock-order"],
        use_baseline=False,
        repo_root=root,
    )
    return [(f.rule, f.key) for f in report.findings]


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
    """A store subclass is held to the guarded fields its base declares
    in another file.  (Dropping the mutex from a method of the live
    ``ShardedSFCIndex`` is a row of ``test_live_mutations.py``.)"""

    SHARDED = Path(sharded_module.__file__)

    def test_sharded_store_copy_is_clean(self, tmp_path):
        (tmp_path / "sharded.py").write_text(self.SHARDED.read_text())
        assert _lint_dir(tmp_path) == []

    def test_a_subclass_is_held_to_its_bases_guarded_fields(self, tmp_path):
        """``_tree`` is annotated in ``SpatialStore`` only.  Linted
        together with that base, in another file, a subclass method
        reading it without the mutex is flagged."""
        anchor = "    def shard_of(self, point"
        source = self.SHARDED.read_text()
        assert source.count(anchor) == 1
        seeded = source.replace(
            anchor, "    def peek(self):\n        return len(self._tree)\n\n" + anchor
        )
        (tmp_path / "store.py").write_text(Path(store_module.__file__).read_text())
        sharded = tmp_path / "sharded.py"
        sharded.write_text(source)
        assert _lint_dir(tmp_path) == []
        sharded.write_text(seeded)
        assert _lint_dir(tmp_path) == [
            ("unguarded-access", "sharded.py::ShardedSFCIndex.peek::_tree")
        ]
