"""Live mutations: every ``repro lint`` rule guards code that exists.

Each row of :data:`BREAKS` breaks one protecting line of the live tree
— a lock, an epoch bump, a WAL append ahead of its apply, a span's
``end()``, a ``close()`` — in a copy of its module, written at the same
repo-relative path so finding keys read as on the real tree.  The copy
is linted with the row's rule alone and the shipped baseline, as CI
lints:

* the unmutated copy gives no finding of the rule;
* the break gives exactly the row's ``(rule, key)`` findings.

A row's original text must occur exactly once in the live file, so a
refactor of the guarded code fails the row instead of letting it pass
on text that no longer exists.  The meta-tests hold the table, the
rules and the CONTRIBUTING catalogue together: a rule that no break of
live code can fire guards nothing, and goes.
"""

from dataclasses import dataclass
from pathlib import Path
from typing import Optional, Tuple

import pytest

from repro.devtools.analyzer import ALL_RULES, lint_tree
from repro.devtools.config import (
    RESOURCE_PAIRS,
    default_baseline_path,
    default_registry_path,
    default_src_root,
    default_tests_root,
)

REPO = default_src_root().parents[1]
REGISTRY = default_registry_path().relative_to(REPO).as_posix()

STORE = "src/repro/api/store.py"
SHARDED = "src/repro/index/sharded.py"
EXECUTOR = "src/repro/engine/executor.py"
CURSOR = "src/repro/api/cursor.py"
CLI = "src/repro/cli.py"
WAL = "src/repro/storage/wal.py"
PAGEFILE = "src/repro/storage/pagefile.py"


@dataclass(frozen=True)
class Break:
    """One protecting line of live code, and what breaking it reports."""

    name: str
    rule: str
    #: ``(repo-relative path, original text, broken text)`` per edit.
    edits: Tuple[Tuple[str, str, str], ...]
    #: The ``(rule, key)`` findings of the broken copy, in report order.
    expected: Tuple[Tuple[str, str], ...]
    #: The ``RESOURCE_PAIRS`` row a lifecycle break exercises.
    kind: Optional[str] = None

    @property
    def id(self) -> str:
        return f"{self.rule}:{self.name}"

    def files(self) -> Tuple[str, ...]:
        """Every file the lint run reads: the edited ones, and for the
        curve-matrix rule the registry and the whole test tree."""
        paths = {path for path, _, _ in self.edits}
        if self.rule == "curve-matrix-gap":
            paths.add(REGISTRY)
            paths.update(
                path.relative_to(REPO).as_posix()
                for path in default_tests_root().rglob("*.py")
            )
        return tuple(sorted(paths))


def _break(name, rule, path, original, broken, *keys, kind=None):
    """A one-edit row whose findings are ``keys`` of ``rule``."""
    return Break(
        name, rule, ((path, original, broken),), tuple((rule, key) for key in keys), kind
    )


BREAKS = (
    _break(
        "store-len", "unguarded-access", STORE,
        "        with self._mutex:\n            return self._count\n",
        "        return self._count\n",
        f"{STORE}::SpatialStore.__len__::_count",
    ),
    _break(
        "shard-loads", "unguarded-access", SHARDED,
        "        with self._mutex:\n"
        "            lo, hi = self._current_columns()[0].bounds(self._shards)\n"
        "            return tuple(end - start for start, end in zip(lo, hi))\n",
        "        lo, hi = self._current_columns()[0].bounds(self._shards)\n"
        "        return tuple(end - start for start, end in zip(lo, hi))\n",
        f"{SHARDED}::ShardedSFCIndex.shard_loads::_shards",
    ),
    _break(
        "flush-io-lock-first", "lock-order", STORE,
        '        with self._mutex:\n            with _obs_span("flush", kind="storage") as sp:\n',
        '        with self._io_lock, self._mutex:\n'
        '            with _obs_span("flush", kind="storage") as sp:\n',
        "_io_lock<->_mutex@<global>",
        "_io_lock->_mutex@declared",
    ),
    _break(
        "install-layout", "epoch-bump", STORE,
        "        self._dirty = {}\n        self._epoch += 1\n",
        "        self._dirty = {}\n",
        f"{STORE}::SpatialStore._install_layout",
    ),
    _break(
        "once-guard", "notify-once", EXECUTOR,
        "        if self._recorded:\n            return\n",
        "",
        f"{EXECUTOR}::PlanStream._finalize::guard",
    ),
    _break(
        "once-flag", "notify-once", EXECUTOR,
        "        self._recorded = True\n",
        "",
        f"{EXECUTOR}::PlanStream._finalize::guard",
    ),
    _break(
        "finally-notifier", "notify-once", EXECUTOR,
        "        finally:\n            self._finalize()\n",
        "        finally:\n            pass\n",
        f"{EXECUTOR}::PlanStream._run::finally",
    ),
    _break(
        "shared-pages", "mutable-default", EXECUTOR,
        "        _shared_pages: Optional[Set[int]] = None,\n",
        "        _shared_pages: Optional[Set[int]] = set(),\n",
        f"{EXECUTOR}::Executor.execute::_shared_pages",
    ),
    _break(
        "stream-span", "span-balance", EXECUTOR,
        "        span.end()\n",
        "",
        f"{EXECUTOR}::PlanStream._span",
        kind="span",
    ),
    _break(
        "query-stream-cursor", "resource-lifecycle", CLI,
        "            with index.cursor(query) as cursor:\n"
        "                rows = sum(1 for _ in cursor)\n"
        "                stats = cursor.stats\n",
        "            cursor = index.cursor(query)\n"
        "            rows = sum(1 for _ in cursor)\n"
        "            stats = cursor.stats\n",
        f"{CLI}::main::cursor:cursor",
        kind="cursor",
    ),
    _break(
        "wal-close", "resource-lifecycle", WAL,
        "            self._handle.close()\n",
        "",
        f"{WAL}::WriteAheadLog._handle::wal-handle",
        kind="wal-handle",
    ),
    _break(
        "write-file-close", "resource-lifecycle", WAL,
        "            self.fsync(handle)\n        finally:\n            handle.close()\n",
        "            self.fsync(handle)\n        finally:\n            pass\n",
        f"{WAL}::FileOps.write_file::wal-handle:handle",
        kind="wal-handle",
    ),
    _break(
        "fsync-dir-close", "resource-lifecycle", WAL,
        "            os.close(fd)\n",
        "            pass\n",
        f"{WAL}::FileOps.fsync_dir::fd:fd",
        kind="fd",
    ),
    _break(
        "insert-applies-first", "durability-ordering", STORE,
        '            self._log_durable(("insert", record.point, payload))\n'
        "            bucket = self._append_records((key,), (record,))\n",
        "            bucket = self._append_records((key,), (record,))\n"
        '            self._log_durable(("insert", record.point, payload))\n',
        f"{STORE}::SpatialStore.insert::_append_records",
    ),
    Break(
        "bulk-applies-first",
        "durability-ordering",
        (
            (STORE, "                    self._log_bulk(cells, attached)\n", ""),
            (
                STORE,
                "                    self._append_records(column.tolist(), records)\n",
                "                    self._append_records(column.tolist(), records)\n"
                "                    self._log_bulk(cells, attached)\n",
            ),
        ),
        (("durability-ordering", f"{STORE}::SpatialStore.bulk_load::_append_records"),),
    ),
    _break(
        "manifest-dir-fsync", "durability-ordering", PAGEFILE,
        "    ops.replace(tmp, root / MANIFEST_NAME)\n    ops.fsync_dir(root)\n",
        "    ops.replace(tmp, root / MANIFEST_NAME)\n",
        f"{PAGEFILE}::write_checkpoint::dirsync:tmp",
    ),
    _break(
        "projection-swallowed", "exception-flow", CURSOR,
        "            # Same contract for a raising projection.\n"
        "            self.close()\n"
        "            raise\n",
        "            # Same contract for a raising projection.\n"
        "            self.close()\n"
        "            return None\n",
        f"{CURSOR}::Cursor.__next__::BaseException#2",
    ),
    Break(
        "columnmajor",
        "curve-matrix-gap",
        (
            ("tests/conftest.py", '    ("columnmajor", 2),\n', ""),
            (
                "tests/engine/test_positions.py",
                ' "rowmajor", "columnmajor",\n',
                ' "rowmajor",\n',
            ),
        ),
        (("curve-matrix-gap", "columnmajor"),),
    ),
)


def _write_copy(root: Path, row: Break, broken: bool) -> None:
    """Copy ``row``'s files under ``root``, its edits applied when
    ``broken``; each original must occur exactly once in the live file."""
    texts = {path: (REPO / path).read_text() for path in row.files()}
    for path, original, mutated in row.edits:
        assert texts[path].count(original) == 1, f"{path} changed: {original!r}"
        if broken:
            texts[path] = texts[path].replace(original, mutated)
    for path, text in texts.items():
        target = root / path
        target.parent.mkdir(parents=True, exist_ok=True)
        target.write_text(text)


def _lint(root: Path, rule: str):
    """``rule``'s unbaselined ``(rule, key)`` findings on the copy."""
    matrix = {}
    if rule == "curve-matrix-gap":
        matrix = {"registry": root / REGISTRY, "tests": root / "tests"}
    report = lint_tree(
        src=root / "src",
        rules=[rule],
        repo_root=root,
        baseline=default_baseline_path(),
        **matrix,
    )
    return [(f.rule, f.key) for f in report.findings]


@pytest.mark.parametrize("row", BREAKS, ids=lambda row: row.id)
def test_live_copy_is_clean(row, tmp_path):
    _write_copy(tmp_path, row, broken=False)
    assert _lint(tmp_path, row.rule) == []


@pytest.mark.parametrize("row", BREAKS, ids=lambda row: row.id)
def test_break_is_flagged(row, tmp_path):
    _write_copy(tmp_path, row, broken=True)
    assert _lint(tmp_path, row.rule) == list(row.expected)


class TestTableCoverage:
    """The rules, the table and the catalogue cannot drift apart."""

    def test_every_rule_has_a_row(self):
        assert {row.rule for row in BREAKS} == set(ALL_RULES)

    def test_every_resource_pair_has_a_row(self):
        rules = {pair.kind: pair.rule for pair in RESOURCE_PAIRS}
        covered = {row.kind: row.rule for row in BREAKS if row.kind is not None}
        assert covered == rules

    def test_every_rule_heads_a_contributing_section(self):
        headings = [
            line
            for line in (REPO / "CONTRIBUTING.md").read_text().splitlines()
            if line.startswith("### ")
        ]
        missing = [
            rule for rule in ALL_RULES if not any(f"`{rule}`" in h for h in headings)
        ]
        assert missing == []
