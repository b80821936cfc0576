"""CLI-level tests: ``repro lint`` exit codes on the seeded fixtures.

These are the acceptance checks from the issue — the command exits
non-zero for each seeded bug class and zero for the clean tree — plus
the flag plumbing (``--rules``, ``--list-rules``, dispatch through
``python -m repro lint``).
"""

import json
from pathlib import Path

import pytest

from repro.cli import main as repro_main
from repro.devtools.cli import main as lint_main

FIXTURES = Path(__file__).parent / "fixtures"

SEEDED = [
    "bad_unguarded.py",
    "bad_lock_order.py",
    "bad_epoch.py",
    "bad_notify.py",
    "bad_mutable_default.py",
    "bad_span.py",
    "bad_leaked_cursor.py",
    "bad_apply_before_wal.py",
    "bad_rename_before_fsync.py",
    "bad_swallow.py",
]


class TestExitCodes:
    @pytest.mark.parametrize("fixture", SEEDED)
    def test_each_seeded_fixture_fails(self, fixture, capsys):
        code = lint_main(["--src", str(FIXTURES / fixture), "--no-baseline"])
        assert code == 1
        out = capsys.readouterr().out
        assert "finding(s)" in out

    def test_curve_matrix_fixture_fails(self, capsys):
        base = FIXTURES / "bad_curve_matrix"
        code = lint_main(
            [
                "--src", str(base / "registry.py"),
                "--registry", str(base / "registry.py"),
                "--tests", str(base / "tests"),
                "--no-baseline",
            ]
        )
        assert code == 1
        assert "gamma" in capsys.readouterr().out

    def test_clean_fixture_passes(self, capsys):
        assert lint_main(["--src", str(FIXTURES / "clean_module.py")]) == 0

    def test_default_tree_passes_with_shipped_baseline(self, capsys):
        """The CI invocation (minus the ratchet): zero on the real tree."""
        assert lint_main([]) == 0
        assert "0 finding(s)" in capsys.readouterr().out

    def test_verbose_lists_baselined_findings(self, capsys):
        assert lint_main(["-v"]) == 0
        out = capsys.readouterr().out
        assert "baselined" in out
        assert "peano" in out


class TestFlags:
    def test_list_rules(self, capsys):
        assert lint_main(["--list-rules"]) == 0
        out = capsys.readouterr().out.split()
        assert "unguarded-access" in out
        assert "curve-matrix-gap" in out

    def test_rules_subset_filters(self, capsys):
        # epoch-bump alone sees nothing wrong with the mutable-default file.
        code = lint_main(
            [
                "--src", str(FIXTURES / "bad_mutable_default.py"),
                "--no-baseline",
                "--rules", "epoch-bump",
            ]
        )
        assert code == 0

    def test_unknown_rule_is_an_error(self):
        with pytest.raises(ValueError, match="unknown rule"):
            lint_main(["--rules", "bogus"])

    def test_json_report_written(self, capsys, tmp_path):
        out_path = tmp_path / "report.json"
        code = lint_main(
            [
                "--src", str(FIXTURES / "bad_swallow.py"),
                "--no-baseline",
                "--json", str(out_path),
            ]
        )
        assert code == 1
        payload = json.loads(out_path.read_text())
        assert payload["ok"] is False
        (finding,) = payload["findings"]
        assert finding["rule"] == "exception-flow"
        assert finding["key"].endswith("::Sink.drain::BaseException#1")
        assert set(finding) == {"rule", "path", "line", "message", "key"}

    def test_json_to_stdout(self, capsys):
        code = lint_main(
            ["--src", str(FIXTURES / "clean_module.py"), "--json", "-"]
        )
        assert code == 0
        out = capsys.readouterr().out
        payload = json.loads(out[out.index("{"):])
        assert payload["ok"] is True
        assert payload["findings"] == []

    def test_github_annotations_emitted(self, capsys):
        code = lint_main(
            [
                "--src", str(FIXTURES / "bad_apply_before_wal.py"),
                "--no-baseline",
                "--github",
            ]
        )
        assert code == 1
        out = capsys.readouterr().out
        assert "::error file=" in out
        assert "title=durability-ordering" in out

    def test_github_annotations_silent_when_clean(self, capsys):
        code = lint_main(
            ["--src", str(FIXTURES / "clean_module.py"), "--github"]
        )
        assert code == 0
        assert "::error" not in capsys.readouterr().out


class TestDispatch:
    def test_repro_cli_routes_lint_subcommand(self, capsys):
        code = repro_main(["lint", "--src", str(FIXTURES / "clean_module.py")])
        assert code == 0

    def test_repro_cli_routes_lint_failure(self, capsys):
        code = repro_main(
            ["lint", "--src", str(FIXTURES / "bad_epoch.py"), "--no-baseline"]
        )
        assert code == 1
