"""One deliberately broken fixture per NUM/API/LNT rule code."""

from __future__ import annotations

import textwrap

from repro.lint import lint_sources


def run(source: str, label: str = "mod.py"):
    findings, _ = lint_sources({label: textwrap.dedent(source)})
    return findings


def codes_at(findings, code: str) -> list[int]:
    return [f.line for f in findings if f.code == code]


class TestNum001ExactFloatEquality:
    def test_eq_against_float_literal(self):
        findings = run(
            """\
            def f(v: float) -> bool:
                return v == 0.3
            """
        )
        assert codes_at(findings, "NUM001") == [2]

    def test_neq_against_zero(self):
        findings = run(
            """\
            def f(v: float) -> bool:
                return v != 0.0
            """
        )
        assert codes_at(findings, "NUM001") == [2]

    def test_integer_literal_is_clean(self):
        findings = run(
            """\
            def f(v: int) -> bool:
                return v == 3
            """
        )
        assert codes_at(findings, "NUM001") == []

    def test_literal_vs_literal_is_constant_folding(self):
        findings = run("x = 1.0 == 1.0\n")
        assert codes_at(findings, "NUM001") == []


class TestNum002UnguardedDivision:
    def test_unguarded_division(self):
        findings = run(
            """\
            def ratio(num: float, den: float) -> float:
                return num / den
            """
        )
        assert codes_at(findings, "NUM002") == [2]

    def test_comparison_guard_silences(self):
        findings = run(
            """\
            def ratio(num: float, den: float) -> float:
                if den <= 0.0:
                    raise ValueError("den must be positive")
                return num / den
            """
        )
        assert codes_at(findings, "NUM002") == []

    def test_predicate_guard_silences(self):
        findings = run(
            """\
            from repro.units import approx_zero

            def ratio(num: float, den: float) -> float:
                if approx_zero(den):
                    raise ValueError("den is zero")
                return num / den
            """
        )
        assert codes_at(findings, "NUM002") == []

    def test_or_fallback_silences(self):
        findings = run(
            """\
            def ratio(num: float, den: float) -> float:
                return num / (den or 1.0)
            """
        )
        assert codes_at(findings, "NUM002") == []

    def test_truth_tested_len_silences(self):
        findings = run(
            """\
            def mean(values: list[float]) -> float:
                if not values:
                    return 0.0
                return sum(values) / len(values)
            """
        )
        assert codes_at(findings, "NUM002") == []

    def test_max_clamp_silences(self):
        findings = run(
            """\
            def f(num: float, den: float) -> float:
                return num / max(den, 1e-12)
            """
        )
        assert codes_at(findings, "NUM002") == []

    def test_path_division_is_not_arithmetic(self):
        findings = run(
            """\
            from pathlib import Path

            def f(out: Path, name: str) -> Path:
                return out / f"{name}.svg" / "sub"
            """
        )
        assert codes_at(findings, "NUM002") == []

    def test_uppercase_constant_is_trusted(self):
        findings = run(
            """\
            SCALE = 1000.0

            def f(v: float) -> float:
                return v / SCALE
            """
        )
        assert codes_at(findings, "NUM002") == []


class TestNum003DomainUnsafeMath:
    def test_sqrt_of_difference(self):
        findings = run(
            """\
            import math

            def f(a: float, b: float) -> float:
                return math.sqrt(a - b)
            """
        )
        assert codes_at(findings, "NUM003") == [4]

    def test_log_of_difference(self):
        findings = run(
            """\
            import math

            def f(a: float, b: float) -> float:
                return math.log(a - b)
            """
        )
        assert codes_at(findings, "NUM003") == [4]

    def test_sqrt_of_sum_is_clean(self):
        findings = run(
            """\
            import math

            def f(a: float, b: float) -> float:
                return math.sqrt(a * a + b * b)
            """
        )
        assert codes_at(findings, "NUM003") == []


class TestNum004NaiveAccumulation:
    def test_plain_sum_in_peec_module(self):
        findings = run(
            """\
            def total(lengths: list[float]) -> float:
                return sum(lengths)
            """,
            label="repro/peec/kernel.py",
        )
        assert codes_at(findings, "NUM004") == [2]

    def test_plain_sum_outside_peec_is_tolerated(self):
        findings = run(
            """\
            def total(lengths: list[float]) -> float:
                return sum(lengths)
            """,
            label="repro/viz/plot.py",
        )
        assert codes_at(findings, "NUM004") == []

    def test_fsum_in_peec_is_clean(self):
        findings = run(
            """\
            import math

            def total(lengths: list[float]) -> float:
                return math.fsum(lengths)
            """,
            label="repro/peec/kernel.py",
        )
        assert codes_at(findings, "NUM004") == []


class TestApi001ModuleMutableState:
    def test_lowercase_module_dict(self):
        findings = run("cache = {}\n")
        assert codes_at(findings, "API001") == [1]

    def test_uppercase_registry_is_convention(self):
        findings = run("REGISTRY = {}\n")
        assert codes_at(findings, "API001") == []

    def test_final_annotation_is_trusted(self):
        findings = run(
            """\
            from typing import Final

            cache: Final = {}
            """
        )
        assert codes_at(findings, "API001") == []


class TestApi002GlobalStatement:
    def test_global_rebinding(self):
        findings = run(
            """\
            _state = None

            def install(value):
                global _state
                _state = value
            """
        )
        assert codes_at(findings, "API002") == [4]


class TestLnt001Unparsable:
    def test_syntax_error_reports_lnt001(self):
        findings = run("def broken(:\n")
        assert [f.code for f in findings] == ["LNT001"]
        assert findings[0].severity.name == "ERROR"
