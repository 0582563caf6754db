"""Inline suppressions and the checked-in baseline."""

from __future__ import annotations

import json
import textwrap

import pytest

from repro.lint import Baseline, LintFinding, lint_sources, scan_suppressions
from repro.lint.registry import lint_spec_for


def run(source: str, label: str = "mod.py"):
    return lint_sources({label: textwrap.dedent(source)})


def finding(file: str, code: str = "NUM002", symbol: str = "f", line: int = 1) -> LintFinding:
    return LintFinding(
        code=code,
        severity=lint_spec_for(code).severity,
        message="x",
        file=file,
        line=line,
        symbol=symbol,
    )


class TestInlineSuppressions:
    def test_same_line_directive_waives_that_line(self):
        findings, suppressed = run(
            """\
            def f(v: float) -> bool:
                return v == 0.3  # physlint: disable=NUM001
            """
        )
        assert findings == []
        assert suppressed == 1

    def test_directive_does_not_leak_to_other_lines(self):
        findings, suppressed = run(
            """\
            def f(v: float) -> bool:
                a = v == 0.3  # physlint: disable=NUM001
                return v == 0.7
            """
        )
        assert [f.line for f in findings] == [3]
        assert suppressed == 1

    def test_standalone_directive_is_file_wide(self):
        findings, suppressed = run(
            """\
            # physlint: disable=NUM001

            def f(v: float) -> bool:
                return v == 0.3

            def g(v: float) -> bool:
                return v == 0.7
            """
        )
        assert findings == []
        assert suppressed == 2

    def test_disable_all(self):
        findings, suppressed = run(
            """\
            # physlint: disable=all

            def f(num: float, den: float) -> float:
                return num / den if num == 0.5 else den
            """
        )
        assert findings == []
        assert suppressed >= 1

    def test_directive_inside_string_is_inert(self):
        suppressions = scan_suppressions('note = "# physlint: disable=NUM001"\n')
        assert suppressions.file_wide == set()
        assert suppressions.by_line == {}

    def test_trailing_prose_after_code_is_tolerated(self):
        suppressions = scan_suppressions(
            "global _x  # physlint: disable=API002 -- documented singleton\n"
        )
        assert suppressions.by_line == {1: {"API002"}}


class TestBaseline:
    def test_roundtrip(self, tmp_path):
        baseline = Baseline.from_findings([finding("a.py"), finding("a.py"), finding("b.py")])
        path = tmp_path / "baseline.json"
        baseline.save(path)
        loaded = Baseline.load(path)
        assert loaded.budgets == {
            ("a.py", "NUM002", "f"): 2,
            ("b.py", "NUM002", "f"): 1,
        }
        assert len(loaded) == 3

    def test_filter_consumes_budget_then_surfaces(self):
        baseline = Baseline.from_findings([finding("a.py")])
        surfaced, waived = baseline.filter(
            [finding("a.py", line=10), finding("a.py", line=20)]
        )
        assert waived == 1
        assert [f.line for f in surfaced] == [20]

    def test_line_drift_does_not_invalidate(self):
        # Keyed on (file, code, symbol): refactoring inside the function
        # keeps the waiver.
        baseline = Baseline.from_findings([finding("a.py", line=5)])
        surfaced, waived = baseline.filter([finding("a.py", line=99)])
        assert surfaced == [] and waived == 1

    def test_different_symbol_surfaces(self):
        baseline = Baseline.from_findings([finding("a.py", symbol="f")])
        surfaced, _ = baseline.filter([finding("a.py", symbol="g")])
        assert len(surfaced) == 1

    @pytest.mark.parametrize(
        "code", ["NUM005", "PRF001", "PRF002", "PRF003", "PRF004", "PRF005", "CON001"]
    )
    def test_retired_codes_still_load(self, tmp_path, code):
        # Retired codes never fire again; waivers that still name them are inert.
        path = tmp_path / "baseline.json"
        entry = {"file": "a.py", "code": code, "symbol": "f", "count": 1}
        path.write_text(json.dumps({"schema": "physlint-baseline/1", "entries": [entry]}))
        surfaced, waived = Baseline.load(path).filter([finding("a.py")])
        assert (len(surfaced), waived) == (1, 0)
        findings, suppressed = run(f"def f(x=[]):  # physlint: disable={code}\n    return x\n")
        assert (findings, suppressed) == ([], 0)

    def test_bad_schema_rejected(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"schema": "nope", "entries": []}))
        with pytest.raises(ValueError, match="schema"):
            Baseline.load(path)

    def test_malformed_entry_rejected(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(
            json.dumps({"schema": "physlint-baseline/1", "entries": [{"code": "X"}]})
        )
        with pytest.raises(ValueError, match="malformed"):
            Baseline.load(path)

    def test_not_json_rejected(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{")
        with pytest.raises(ValueError, match="JSON"):
            Baseline.load(path)
