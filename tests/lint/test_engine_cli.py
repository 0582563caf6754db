"""The physlint engine, the ``lint-src`` CLI, and the acceptance fixtures.

Two acceptance criteria from the subsystem's issue live here:

* a fixture module containing a mixed-unit add (m + mm), a float ``==``
  and an unguarded division reports exactly UNT001, NUM001 and NUM002
  and exits nonzero;
* the shipped tree itself, checked against the checked-in baseline,
  exits 0.
"""

from __future__ import annotations

import json
import textwrap
from collections import Counter
from pathlib import Path

import pytest

from repro.lint import (
    DEFAULT_BASELINE_PATH,
    Baseline,
    default_target,
    lint_paths,
    lint_rule_specs,
    lint_spec_for,
)
from repro.lint.registry import _RETIRED
from repro.cli import build_parser, main

ACCEPTANCE_FIXTURE = textwrap.dedent(
    """\
    def emd(board_gap: Meters, clearance: Millimeters) -> Meters:
        return board_gap + clearance


    def is_resonant(freq: float) -> bool:
        return freq == 1e6


    def scale(num: float, den: float) -> float:
        return num / den
    """
)


@pytest.fixture
def fixture_file(tmp_path):
    path = tmp_path / "broken_module.py"
    path.write_text(ACCEPTANCE_FIXTURE)
    return path


class TestParser:
    def test_defaults(self):
        args = build_parser().parse_args(["lint-src"])
        assert args.paths == []
        assert args.format == "text"
        assert args.fail_on == "warning"
        assert not args.no_baseline

    def test_flags(self):
        args = build_parser().parse_args(
            ["lint-src", "src", "--format", "json", "--fail-on", "error", "--no-baseline"]
        )
        assert args.paths == [Path("src")]
        assert args.format == "json"
        assert args.no_baseline


class TestAcceptanceFixture:
    def test_reports_unt001_num001_num002(self, fixture_file):
        result = lint_paths([fixture_file], baseline=None)
        assert sorted({f.code for f in result.findings}) == [
            "NUM001",
            "NUM002",
            "UNT001",
        ]

    def test_cli_exits_nonzero(self, fixture_file, capsys):
        code = main(["lint-src", str(fixture_file), "--no-baseline"])
        out = capsys.readouterr().out
        assert code == 2  # UNT001 is an error
        assert "UNT001" in out and "NUM001" in out and "NUM002" in out

    def test_cli_json_output(self, fixture_file, capsys):
        code = main(["lint-src", str(fixture_file), "--no-baseline", "--format", "json"])
        payload = json.loads(capsys.readouterr().out)
        assert code == 2
        assert payload["files"] == 1
        assert payload["counts"]["error"] >= 1
        codes = {d["code"] for d in payload["diagnostics"]}
        assert {"UNT001", "NUM001", "NUM002"} <= codes

    def test_fail_on_error_ignores_plain_warnings(self, tmp_path, capsys):
        path = tmp_path / "warn_only.py"
        path.write_text("def f(v: float) -> bool:\n    return v == 0.3\n")
        code = main(["lint-src", str(path), "--no-baseline", "--fail-on", "error"])
        assert code == 0
        assert "NUM001" in capsys.readouterr().out


class TestCleanTree:
    def test_shipped_tree_is_clean_under_baseline(self, shipped_tree_lint):
        baseline = Baseline.load(DEFAULT_BASELINE_PATH)
        surfaced, _waived = baseline.filter(shipped_tree_lint.findings)
        offenders = [f"{f.file}:{f.line} {f.code}" for f in surfaced]
        assert offenders == [], (
            "physlint found non-baselined findings; fix them or run "
            "`make physlint-baseline`"
        )
        assert shipped_tree_lint.files > 100

    def test_baseline_has_no_stale_entries(self, shipped_tree_lint):
        # A budget above the live count silently waives the next finding
        # at that key, so every entry must match the tree exactly.
        live = Counter(f.baseline_key() for f in shipped_tree_lint.findings)
        stale = {
            key: (budget, live[key])
            for key, budget in Baseline.load(DEFAULT_BASELINE_PATH).budgets.items()
            if live[key] != budget
        }
        assert stale == {}, "baseline (budget, live) mismatches; run `make physlint-baseline`"

    def test_cli_clean_tree_exits_zero(self, capsys):
        code = main(["lint-src", str(default_target())])
        assert code == 0
        capsys.readouterr()


SELECT_FIXTURE = textwrap.dedent(
    """\
    def emd(board_gap: Meters, clearance: Millimeters) -> Meters:
        return board_gap + clearance


    def scale(num: float, den: float) -> float:
        return num / den
    """
)


class TestSelect:
    @pytest.fixture
    def mixed_file(self, tmp_path):
        path = tmp_path / "mixed.py"
        path.write_text(SELECT_FIXTURE)
        return path

    def test_select_unt_drops_other_families(self, mixed_file):
        result = lint_paths([mixed_file], baseline=None, select=["UNT"])
        assert sorted({f.code for f in result.findings}) == ["UNT001"]

    def test_no_select_keeps_everything(self, mixed_file):
        result = lint_paths([mixed_file], baseline=None)
        codes = {f.code for f in result.findings}
        assert {"NUM002", "UNT001"} <= codes

    def test_exact_code_select(self, mixed_file):
        result = lint_paths([mixed_file], baseline=None, select=["NUM002"])
        assert sorted({f.code for f in result.findings}) == ["NUM002"]

    def test_parse_errors_survive_select(self, tmp_path):
        path = tmp_path / "broken.py"
        path.write_text("def f(:\n")
        result = lint_paths([path], baseline=None, select=["UNT"])
        assert [f.code for f in result.findings] == ["LNT001"]

    def test_cli_select_flag(self, mixed_file, capsys):
        code = main(["lint-src", str(mixed_file), "--no-baseline", "--select", "UNT"])
        out = capsys.readouterr().out
        assert code == 2  # UNT001 is an error
        assert "UNT001" in out
        assert "NUM002" not in out

    def test_cli_select_empty_errors(self, mixed_file, capsys):
        code = main(["lint-src", str(mixed_file), "--select", ",,"])
        assert code != 0
        capsys.readouterr()

    @pytest.mark.parametrize(
        ("token", "reason"),
        [("CON", _RETIRED["CON001"]), ("PRF", _RETIRED["PRF001"]), ("XYZ", "matches no rule")],
    )
    def test_cli_select_matching_nothing_errors(self, mixed_file, capsys, token, reason):
        # A retired family or a typo must not pass the gate by selecting nothing.
        code = main(["lint-src", str(mixed_file), "--no-baseline", "--select", f"NUM002,{token}"])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert f"--select {token}" in captured.err and reason in captured.err

    def test_cli_select_code_and_family(self, mixed_file, capsys):
        code = main(["lint-src", str(mixed_file), "--no-baseline", "--select", "NUM002,UNT"])
        out = capsys.readouterr().out
        assert code == 2  # UNT001 is an error
        assert "UNT001" in out and "NUM002" in out


class TestEngine:
    def test_write_baseline_then_clean(self, fixture_file, tmp_path, capsys):
        baseline_path = tmp_path / "baseline.json"
        code = main(
            [
                "lint-src",
                str(fixture_file),
                "--no-baseline",
                "--write-baseline",
                str(baseline_path),
            ]
        )
        assert code == 0  # --write-baseline accepts the findings and exits 0
        capsys.readouterr()
        code = main(["lint-src", str(fixture_file), "--baseline", str(baseline_path)])
        assert code == 0
        capsys.readouterr()

    def test_missing_path_errors(self, capsys):
        code = main(["lint-src", "/no/such/path.py"])
        assert code != 0
        assert "no such file" in capsys.readouterr().err

    def test_directory_labels_are_package_relative(self, tmp_path):
        pkg = tmp_path / "repro" / "sub"
        pkg.mkdir(parents=True)
        (pkg / "m.py").write_text("def f(v: float) -> bool:\n    return v == 0.1\n")
        result = lint_paths([tmp_path / "repro"], baseline=None)
        assert [f.file for f in result.findings] == ["repro/sub/m.py"]

    def test_registry_is_stable(self):
        codes = [spec.code for spec in lint_rule_specs()]
        assert len(codes) == len(set(codes))
        # Append-only contract: these codes are documented and baselined;
        # a retired code stays retired and is never registered again.
        assert set(codes).isdisjoint(_RETIRED)
        assert {
            "UNT001",
            "UNT002",
            "UNT003",
            "UNT004",
            "UNT005",
            "UNT006",
            "NUM001",
            "NUM002",
            "NUM003",
            "NUM004",
            "NUM005",
            "API001",
            "API002",
            "CON001",
            "CON002",
            "CON003",
            "CON004",
            "CON005",
            "PRF001",
            "PRF002",
            "PRF003",
            "PRF004",
            "PRF005",
            "ARCH001",
            "ARCH002",
            "ARCH003",
            "LNT001",
        } == set(codes) | set(_RETIRED)
        for code in _RETIRED:
            with pytest.raises(KeyError):
                lint_spec_for(code)

    def test_module_entry_point(self, fixture_file, capsys):
        from repro.lint.__main__ import main as module_main

        code = module_main([str(fixture_file), "--no-baseline"])
        assert code == 2
        capsys.readouterr()


class TestObservability:
    def test_lint_run_emits_spans_and_counters(self, fixture_file):
        from repro.obs import disable, enable

        tracer = enable()
        try:
            lint_paths([fixture_file], baseline=None)
        finally:
            disable()
        report = tracer.report()
        assert report.find("lint.run") is not None
        assert report.find("lint.analyze") is not None
        counters = report.totals()
        assert counters.get("lint.files") == 1
        assert counters.get("lint.findings", 0) >= 3
