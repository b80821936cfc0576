"""The driver that runs every static rule and produces one report.

``lint_tree`` walks the source tree once, parses each file once, builds
the per-function CFG units once (:mod:`repro.devtools.dataflow`), and
feeds them to the lock-discipline, lifecycle, ordering and invariant
rules; the curve-matrix rule additionally scans the test tree.
Findings pass through the baseline (intentional, commented exceptions
matched on stable ``(rule, key)`` pairs — see ``lint_baseline.txt``)
before the report's ``ok`` verdict, and a baseline entry that matches
nothing is itself an error so the baseline can only document real
exceptions.
"""

from __future__ import annotations

import ast
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Set, Tuple

from . import dataflow, invariants, lifecycle, ordering
from .config import (
    default_baseline_path,
    default_registry_path,
    default_src_root,
    default_tests_root,
)
from .findings import LintReport, load_baseline
from .locklint import LockLint

__all__ = ["ALL_RULES", "lint_tree"]

#: Every rule the CLI's ``--rules`` flag can select.
ALL_RULES: Tuple[str, ...] = (
    "unguarded-access",
    "lock-order",
    "epoch-bump",
    "notify-once",
    "mutable-default",
    "span-balance",
    "resource-lifecycle",
    "durability-ordering",
    "exception-flow",
    "curve-matrix-gap",
)


def _python_files(root: Path) -> List[Path]:
    if root.is_file():
        return [root]
    return sorted(root.rglob("*.py"))


def lint_tree(
    src: Optional[Path] = None,
    tests: Optional[Path] = None,
    registry: Optional[Path] = None,
    baseline: Optional[Path] = None,
    rules: Optional[Sequence[str]] = None,
    repo_root: Optional[Path] = None,
    use_baseline: bool = True,
) -> LintReport:
    """Run the static suite; every argument defaults to the repo layout.

    ``src`` may be a directory (walked recursively) or a single file —
    the fixture self-tests lint one seeded-bug module at a time.
    ``use_baseline=False`` (the CLI's ``--no-baseline``) reports raw
    findings with no exceptions applied.
    """
    src = src if src is not None else default_src_root()
    if repo_root is None:
        probe = src if src.is_dir() else src.parent
        for ancestor in (probe, *probe.parents):
            if (ancestor / ".git").exists() or (ancestor / "pyproject.toml").exists():
                repo_root = ancestor
                break
    selected: Set[str] = set(ALL_RULES if rules is None else rules)
    unknown = selected - set(ALL_RULES)
    if unknown:
        raise ValueError(f"unknown rule(s): {', '.join(sorted(unknown))}")

    def relpath(path: Path) -> str:
        if repo_root is not None:
            try:
                return path.resolve().relative_to(repo_root.resolve()).as_posix()
            except ValueError:
                pass
        return path.as_posix()

    report = LintReport()
    lock_lint = LockLint()
    for path in _python_files(src):
        source = path.read_text()
        tree = ast.parse(source, filename=str(path))
        rel = relpath(path)
        units = dataflow.module_units(tree)
        lock_lint.add_module(tree, source, rel, units)
        report.extend(invariants.check_epoch_bumps(units, rel))
        report.extend(invariants.check_notify_once(tree, rel))
        report.extend(invariants.check_mutable_defaults(units, rel))
        report.extend(lifecycle.check_resource_lifecycle(tree, units, rel))
        report.extend(ordering.check_durability_ordering(units, rel))
        report.extend(ordering.check_exception_flow(tree, units, rel))
    report.extend(lock_lint.finalize())

    # The matrix rule is repo-level: run it against explicit paths, or
    # against the repo defaults only for a default-tree lint — linting a
    # single fixture file must not drag the real registry in.
    run_matrix = registry is not None or tests is not None or src == default_src_root()
    if "curve-matrix-gap" in selected and run_matrix:
        registry = registry if registry is not None else default_registry_path()
        tests = tests if tests is not None else default_tests_root()
        if registry.exists() and tests.exists():
            report.extend(
                invariants.check_curve_matrices(
                    registry, _python_files(tests), relpath(registry)
                )
            )

    report.findings = [f for f in report.findings if f.rule in selected]

    baseline_entries: Dict[Tuple[str, str], str] = {}
    if use_baseline and baseline is not None:
        baseline_entries = load_baseline(baseline)
    elif use_baseline and src == default_src_root():
        default = default_baseline_path()
        if default.exists():
            baseline_entries = load_baseline(default)
    baseline_entries = {
        entry: comment
        for entry, comment in baseline_entries.items()
        if entry[0] in selected
    }
    report.apply_baseline(baseline_entries)
    return report
