"""Self-tests: every static rule catches its seeded fixture and stays
silent on the clean one — and on the real production tree.

The fixtures in ``tests/devtools/fixtures`` each plant one bug class;
linting them file-by-file proves each rule fires (with stable finding
keys), and linting ``clean_module.py`` (plus the shipped ``src/repro``
tree) proves the rules do not cry wolf.
"""

from pathlib import Path

import pytest

import repro.engine.executor as executor_module
from repro.devtools.analyzer import ALL_RULES, lint_tree
from repro.devtools.findings import Finding, LintReport, load_baseline

FIXTURES = Path(__file__).parent / "fixtures"


def _lint(name, **kwargs):
    return lint_tree(src=FIXTURES / name, use_baseline=False, **kwargs)


def _rules(report):
    return {finding.rule for finding in report.findings}


# ----------------------------------------------------------------------
# Each rule catches its fixture
# ----------------------------------------------------------------------
class TestSeededFixtures:
    def test_unguarded_access(self):
        report = _lint("bad_unguarded.py")
        findings = [f for f in report.findings if f.rule == "unguarded-access"]
        assert len(findings) == 3
        methods = {f.key.rsplit("::", 2)[-2] for f in findings}
        assert methods == {"LeakyCounter.peek", "LeakyCounter.reset"}
        # The disciplined methods are silent.
        assert not any("add" in f.key for f in findings)

    def test_lock_order_inversion(self):
        report = _lint("bad_lock_order.py")
        findings = [f for f in report.findings if f.rule == "lock-order"]
        assert findings, "inversion went undetected"
        # Both verdicts fire: the cycle and the declared-order breach.
        assert any("<->" in f.key for f in findings)
        assert any(f.key.endswith("@declared") for f in findings)

    def test_blocking_under_lock(self):
        report = _lint("bad_blocking.py")
        findings = [f for f in report.findings if f.rule == "blocking-under-lock"]
        blocked = {f.key.rsplit("::", 1)[-1] for f in findings}
        assert blocked == {"sleep", "result", "shutdown"}
        # stop_fast's shutdown(wait=False) is exempt.
        assert all("stop_fast" not in f.key for f in findings)

    def test_epoch_bump(self):
        report = _lint("bad_epoch.py")
        findings = [f for f in report.findings if f.rule == "epoch-bump"]
        assert [f.key.rsplit("::", 1)[-1] for f in findings] == [
            "StaleStore.bad_swap"
        ]

    def test_notify_once(self):
        report = _lint("bad_notify.py")
        findings = [f for f in report.findings if f.rule == "notify-once"]
        keys = {f.key.split("::", 1)[-1] for f in findings}
        # DoubleNotify: both unguarded notifiers flagged.
        assert "DoubleNotify.stream::guard" in keys
        assert "DoubleNotify.close::guard" in keys
        # MissingNotify: the generator lacks a finally-notifier and
        # close() never reaches one.
        assert "MissingNotify.stream::finally" in keys
        assert "MissingNotify.close" in keys

    def test_mutable_default(self):
        report = _lint("bad_mutable_default.py")
        findings = [f for f in report.findings if f.rule == "mutable-default"]
        args = {f.key.rsplit("::", 1)[-1] for f in findings}
        assert args == {"acc", "counts", "seen", "buffer"}

    def test_span_balance(self):
        report = _lint("bad_span.py")
        findings = [f for f in report.findings if f.rule == "span-balance"]
        keys = {f.key.split("::", 1)[-1] for f in findings}
        assert keys == {
            "LeakyStream._span",  # stored span no method ends
            "leaky_local::sp",  # happy-path end, not in a finally
            "discarded_span::discard",  # result dropped entirely
        }
        # The finally-disciplined function is silent.
        assert not any("disciplined_local" in f.key for f in findings)

    def test_leaked_cursor(self):
        report = _lint("bad_leaked_cursor.py")
        findings = [f for f in report.findings if f.rule == "resource-lifecycle"]
        assert len(findings) == 1
        (finding,) = findings
        assert finding.key.endswith("::RowReader.first_row::cursor:cur")
        # The provider method and the try/finally consumer are silent.
        assert report.findings == findings

    def test_apply_before_wal(self):
        report = _lint("bad_apply_before_wal.py")
        findings = [f for f in report.findings if f.rule == "durability-ordering"]
        assert len(findings) == 1
        (finding,) = findings
        assert finding.key.endswith("::Ledger.bad_insert::_append_record")
        # The log-first twin is silent.
        assert report.findings == findings

    def test_rename_before_fsync(self):
        report = _lint("bad_rename_before_fsync.py")
        findings = [f for f in report.findings if f.rule == "durability-ordering"]
        assert len(findings) == 1
        (finding,) = findings
        assert finding.key.endswith("::Publisher.publish::replace:tmp")
        # The full-chain twin is silent.
        assert report.findings == findings

    def test_swallowed_base_exception(self):
        report = _lint("bad_swallow.py")
        findings = [f for f in report.findings if f.rule == "exception-flow"]
        assert len(findings) == 1
        (finding,) = findings
        assert finding.key.endswith("::Sink.drain::BaseException#1")
        # The re-raising twin is silent.
        assert report.findings == findings

    def test_curve_matrix_gap(self):
        base = FIXTURES / "bad_curve_matrix"
        report = lint_tree(
            src=base / "registry.py",
            registry=base / "registry.py",
            tests=base / "tests",
            use_baseline=False,
        )
        findings = [f for f in report.findings if f.rule == "curve-matrix-gap"]
        assert [f.key for f in findings] == ["gamma"]


# ----------------------------------------------------------------------
# No false positives
# ----------------------------------------------------------------------
class TestCleanTargets:
    def test_clean_fixture_is_silent(self):
        report = _lint("clean_module.py")
        assert report.findings == [], [f.render() for f in report.findings]
        assert report.ok

    def test_real_tree_is_clean_modulo_baseline(self):
        """The shipped analyzer + shipped baseline pass on the shipped
        tree — the exact invocation CI blocks on."""
        report = lint_tree()
        assert report.ok, "\n" + report.render(verbose=True)

    def test_baselined_exceptions_are_reported_not_fatal(self):
        report = lint_tree()
        # The intentional exceptions (see lint_baseline.txt) are visible
        # as suppressed findings, not silently dropped.
        assert {f.key for f in report.suppressed} >= {"peano", "z"}

    def test_new_rule_families_raw_on_real_tree(self):
        """Without the baseline: the lifecycle and durability rules are
        genuinely clean on the shipped tree, and the only exception-flow
        findings are the five documented intentional swallows."""
        report = lint_tree(use_baseline=False)
        rules = {f.rule for f in report.findings}
        assert "resource-lifecycle" not in rules
        assert "durability-ordering" not in rules
        swallows = {
            f.key.split("::", 1)[1]
            for f in report.findings
            if f.rule == "exception-flow"
        }
        assert swallows == {
            "Counter.inc::Exception#1",
            "Gauge.set::Exception#1",
            "Gauge.inc::Exception#1",
            "Histogram._fold_locked::Exception#1",
            "scan_wal::Exception#1",
        }


class TestPlanStreamNotifyOnce:
    """``notify-once`` keeps guarding the real ``PlanStream``: breaking
    either half of its exactly-once contract in a copy of
    ``engine/executor.py`` yields exactly one finding."""

    EXECUTOR = Path(executor_module.__file__)
    GUARD = "        if self._recorded:\n            return\n"
    FINALLY = "        finally:\n            self._finalize()\n"

    def _lint_copy(self, tmp_path, source):
        path = tmp_path / "executor.py"
        path.write_text(source)
        report = lint_tree(
            src=path, use_baseline=False, rules=["notify-once"], repo_root=tmp_path
        )
        return [(f.rule, f.key) for f in report.findings]

    def test_executor_copy_is_clean(self, tmp_path):
        assert self._lint_copy(tmp_path, self.EXECUTOR.read_text()) == []

    def test_dropping_the_once_guard_is_flagged(self, tmp_path):
        source = self.EXECUTOR.read_text()
        assert source.count(self.GUARD) == 1
        findings = self._lint_copy(tmp_path, source.replace(self.GUARD, ""))
        assert findings == [
            ("notify-once", "executor.py::PlanStream._finalize::guard")
        ]

    def test_dropping_the_finally_notifier_is_flagged(self, tmp_path):
        source = self.EXECUTOR.read_text()
        assert source.count(self.FINALLY) == 1
        seeded = source.replace(self.FINALLY, "        finally:\n            pass\n")
        assert self._lint_copy(tmp_path, seeded) == [
            ("notify-once", "executor.py::PlanStream._run::finally")
        ]


# ----------------------------------------------------------------------
# Report/baseline mechanics
# ----------------------------------------------------------------------
class TestBaseline:
    def test_baseline_suppresses_by_rule_and_key(self, tmp_path):
        baseline = tmp_path / "baseline.txt"
        baseline.write_text(
            "unguarded-access {}::LeakyCounter.peek::_count  # demo\n".format(
                "tests/devtools/fixtures/bad_unguarded.py"
            )
        )
        raw = _lint("bad_unguarded.py")
        (key,) = [
            f.key for f in raw.findings if f.key.endswith("peek::_count")
        ]
        baseline.write_text(f"unguarded-access {key}  # demo\n")
        report = lint_tree(src=FIXTURES / "bad_unguarded.py", baseline=baseline)
        assert len(report.suppressed) == 1
        assert len(report.findings) == len(raw.findings) - 1
        assert not report.unused_baseline

    def test_stale_baseline_entry_fails_the_run(self, tmp_path):
        baseline = tmp_path / "baseline.txt"
        baseline.write_text("epoch-bump nonexistent::key  # stale\n")
        report = lint_tree(src=FIXTURES / "clean_module.py", baseline=baseline)
        assert not report.ok
        assert report.unused_baseline == ["epoch-bump nonexistent::key"]

    def test_malformed_baseline_line_raises(self, tmp_path):
        baseline = tmp_path / "baseline.txt"
        baseline.write_text("just-one-token\n")
        with pytest.raises(ValueError, match="malformed baseline"):
            load_baseline(baseline)

    def test_unknown_rule_rejected(self):
        with pytest.raises(ValueError, match="unknown rule"):
            lint_tree(rules=["unguarded-access", "made-up-rule"])

    def test_rule_filter_drops_other_rules(self):
        report = _lint("bad_mutable_default.py", rules=["epoch-bump"])
        assert report.findings == []


class TestFindingRendering:
    def test_render_shape(self):
        finding = Finding(
            rule="epoch-bump", path="a/b.py", line=7, message="m", key="k"
        )
        assert finding.render() == "a/b.py:7: [epoch-bump] m"

    def test_repo_level_finding_renders_without_line(self):
        finding = Finding(
            rule="curve-matrix-gap", path="a/b.py", line=0, message="m", key="k"
        )
        assert finding.render() == "a/b.py: [curve-matrix-gap] m"

    def test_report_summary_counts(self):
        report = LintReport()
        report.extend(
            [Finding(rule="r", path="p", line=1, message="m", key="k")]
        )
        rendered = report.render()
        assert "1 finding(s)" in rendered

    def test_all_rules_listed(self):
        assert set(ALL_RULES) == {
            "unguarded-access",
            "lock-order",
            "blocking-under-lock",
            "epoch-bump",
            "notify-once",
            "mutable-default",
            "span-balance",
            "resource-lifecycle",
            "durability-ordering",
            "exception-flow",
            "curve-matrix-gap",
        }
