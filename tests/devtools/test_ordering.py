"""Unit tests for the durability-ordering and exception-flow rules
beyond the seeded fixtures: dominance on branches, the rename chain's
dir-fsync requirement, and the always-raises handler analysis."""

import ast

from repro.devtools import dataflow
from repro.devtools.ordering import (
    check_durability_ordering,
    check_exception_flow,
)

REL = "mod.py"


def _ordering(source):
    tree = ast.parse(source)
    return check_durability_ordering(dataflow.module_units(tree), REL)


def _exc_flow(source):
    tree = ast.parse(source)
    return check_exception_flow(tree, dataflow.module_units(tree), REL)


def _keys(findings):
    return {f.key for f in findings}


class TestLogThenApply:
    def test_apply_reachable_logfree_on_one_branch(self):
        findings = _ordering(
            "class C:\n"
            "    def m(self, k):\n"
            "        if k:\n"
            "            self._log_durable(k)\n"
            "        self._append_records(k)\n"
        )
        assert _keys(findings) == {f"{REL}::C.m::_append_records"}

    def test_apply_dominated_by_log_is_silent(self):
        findings = _ordering(
            "class C:\n"
            "    def m(self, k):\n"
            "        self._log_durable(k)\n"
            "        if k:\n"
            "            self._append_records(k)\n"
        )
        assert findings == []

    def test_self_attr_store_before_log_flagged(self):
        findings = _ordering(
            "class C:\n"
            "    def m(self, k):\n"
            "        self._count = 1\n"
            "        self._log_durable(k)\n"
        )
        assert _keys(findings) == {f"{REL}::C.m::self._count"}

    def test_function_without_log_call_unchecked(self):
        # The rule only audits functions that append to the WAL at all;
        # read-side mutators are out of scope by design.
        findings = _ordering(
            "class C:\n"
            "    def m(self, k):\n"
            "        self._append_records(k)\n"
        )
        assert findings == []

    def test_log_inside_loop_does_not_dominate_first_iteration(self):
        findings = _ordering(
            "class C:\n"
            "    def m(self, keys):\n"
            "        for k in keys:\n"
            "            self._append_records(k)\n"
            "            self._log_durable(k)\n"
        )
        assert _keys(findings) == {f"{REL}::C.m::_append_records"}


class TestRenameChain:
    def test_full_chain_is_silent(self):
        findings = _ordering(
            "class C:\n"
            "    def publish(self, ops, root, data):\n"
            "        tmp = root / 'm.tmp'\n"
            "        ops.write_file(tmp, data)\n"
            "        ops.replace(tmp, root / 'm')\n"
            "        ops.fsync_dir(root)\n"
        )
        assert findings == []

    def test_missing_dir_fsync_flagged(self):
        findings = _ordering(
            "class C:\n"
            "    def publish(self, ops, root, data):\n"
            "        tmp = root / 'm.tmp'\n"
            "        ops.write_file(tmp, data)\n"
            "        ops.replace(tmp, root / 'm')\n"
        )
        assert _keys(findings) == {f"{REL}::C.publish::dirsync:tmp"}

    def test_chain_implementation_itself_exempt(self):
        # FileOps.replace and friends *are* the seam the rule checks
        # callers against.
        findings = _ordering(
            "class FileOps:\n"
            "    def replace(self, src, dst):\n"
            "        self._os.replace(src, dst)\n"
        )
        assert findings == []

    def test_str_replace_not_confused_with_rename(self):
        findings = _ordering(
            "class C:\n"
            "    def slug(self, name):\n"
            "        return name.replace(' ', '-')\n"
        )
        assert findings == []


class TestExceptionFlow:
    def test_bare_except_flagged(self):
        findings = _exc_flow(
            "def m():\n"
            "    try:\n"
            "        work()\n"
            "    except:\n"
            "        pass\n"
        )
        assert _keys(findings) == {f"{REL}::m::bare#1"}

    def test_tuple_with_base_exception_labelled_base_exception(self):
        findings = _exc_flow(
            "def m():\n"
            "    try:\n"
            "        work()\n"
            "    except (ValueError, BaseException):\n"
            "        return None\n"
        )
        assert _keys(findings) == {f"{REL}::m::BaseException#1"}

    def test_handler_that_always_raises_is_silent(self):
        findings = _exc_flow(
            "def m():\n"
            "    try:\n"
            "        work()\n"
            "    except BaseException:\n"
            "        cleanup()\n"
            "        raise\n"
        )
        assert findings == []

    def test_branchy_handler_raising_on_both_sides_is_silent(self):
        findings = _exc_flow(
            "def m(strict):\n"
            "    try:\n"
            "        work()\n"
            "    except Exception as e:\n"
            "        if strict:\n"
            "            raise\n"
            "        else:\n"
            "            raise RuntimeError from e\n"
        )
        assert findings == []

    def test_narrow_handler_not_flagged(self):
        findings = _exc_flow(
            "def m():\n"
            "    try:\n"
            "        work()\n"
            "    except ValueError:\n"
            "        pass\n"
        )
        assert findings == []

    def test_module_level_handler_and_stable_ordinals(self):
        findings = _exc_flow(
            "try:\n"
            "    import fast_json\n"
            "except Exception:\n"
            "    fast_json = None\n"
            "try:\n"
            "    import fast_lz\n"
            "except Exception:\n"
            "    fast_lz = None\n"
        )
        assert _keys(findings) == {
            f"{REL}::<module>::Exception#1",
            f"{REL}::<module>::Exception#2",
        }
