"""The ARCH rule family: import cycles, layer violations, importing the CLI.

* a broken fixture per rule code (ARCH001-ARCH003) reports exactly that
  code at the expected line and exits nonzero from the CLI;
* the import graph skips ``TYPE_CHECKING`` and lazy imports and resolves
  relative ones;
* the shipped tree is ARCH-clean with no baseline, and the layer table in
  ``docs/ARCHITECTURE.md`` is ``ARCH_LAYERS``.
"""

from __future__ import annotations

import textwrap
from pathlib import Path

import pytest

from repro.cli import main
from repro.lint import Baseline, build_import_graph, lint_paths, lint_sources

REPO_ROOT = Path(__file__).parents[2]

ARCH001_A_SRC = "import repro.alpha.b\n"
ARCH001_B_SRC = "import repro.alpha.a\n"
ARCH002_SRC = "from repro.check.limits import COUPLING_CLAMP_TOLERANCE\n"
ARCH003_SRC = "import repro.cli\n"
NUM002_SRC = "def scale(num, den):\n    return num / den\n"

#: code -> (sources, offending label, expected line).
CASES: dict[str, tuple[dict[str, str], str, int]] = {
    "ARCH001": (
        {"repro/alpha/a.py": ARCH001_A_SRC, "repro/alpha/b.py": ARCH001_B_SRC},
        "repro/alpha/a.py",
        1,
    ),
    "ARCH002": ({"repro/geometry/shapes.py": ARCH002_SRC}, "repro/geometry/shapes.py", 1),
    "ARCH003": ({"repro/viz/shim.py": ARCH003_SRC}, "repro/viz/shim.py", 1),
}


def _all_sources() -> dict[str, str]:
    merged: dict[str, str] = {}
    for sources, _label, _line in CASES.values():
        merged.update(sources)
    return merged


def _write_tree(tmp_path: Path) -> Path:
    for label, text in _all_sources().items():
        path = tmp_path / label
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(text)
    return tmp_path / "repro"


class TestBrokenFixtures:
    @pytest.mark.parametrize("code", sorted(CASES))
    def test_reports_exact_code_and_line(self, code):
        sources, label, line = CASES[code]
        findings, _ = lint_sources(sources, select=[code])
        assert [(f.code, f.file, f.line) for f in findings] == [(code, label, line)]

    @pytest.mark.parametrize("code", sorted(CASES))
    def test_cli_exits_nonzero(self, code, tmp_path, capsys):
        tree = _write_tree(tmp_path)
        _sources, label, line = CASES[code]
        exit_code = main(["lint-src", str(tree), "--no-baseline", "--select", code])
        out = capsys.readouterr().out
        assert exit_code == 2
        assert code in out
        assert f"{label}:{line}" in out


class TestSelectFamilies:
    def test_select_arch_keeps_only_arch(self):
        findings, _ = lint_sources(_all_sources(), select=["ARCH"])
        codes = sorted({f.code for f in findings})
        assert codes == ["ARCH001", "ARCH002", "ARCH003"]

    def test_mixed_select_with_exact_code(self):
        sources = {**_all_sources(), "repro/core/div.py": NUM002_SRC}
        findings, _ = lint_sources(sources, select=["ARCH003", "NUM002"])
        codes = sorted({f.code for f in findings})
        assert codes == ["ARCH003", "NUM002"]


class TestBaselineRoundTrip:
    def test_write_then_clean(self, tmp_path, capsys):
        tree = _write_tree(tmp_path)
        baseline_path = tmp_path / "arch_baseline.json"
        wrote = main(
            [
                "lint-src",
                str(tree),
                "--no-baseline",
                "--select",
                "ARCH",
                "--write-baseline",
                str(baseline_path),
            ]
        )
        capsys.readouterr()
        assert wrote == 0
        baseline = Baseline.load(baseline_path)
        rerun = main(
            ["lint-src", str(tree), "--select", "ARCH", "--baseline", str(baseline_path)]
        )
        capsys.readouterr()
        assert rerun == 0
        result = lint_paths([tree], baseline=baseline, select=["ARCH"])
        assert result.findings == []
        assert result.baselined == len(CASES)


class TestImportGraph:
    def test_type_checking_imports_are_skipped(self):
        sources = {
            "repro/alpha/a.py": textwrap.dedent(
                """\
                from typing import TYPE_CHECKING

                if TYPE_CHECKING:
                    import repro.alpha.b
                """
            ),
            "repro/alpha/b.py": ARCH001_B_SRC,
        }
        findings, _ = lint_sources(sources, select=["ARCH001"])
        assert findings == []

    def test_lazy_imports_do_not_form_cycles(self):
        sources = {
            "repro/alpha/a.py": textwrap.dedent(
                """\
                def late():
                    import repro.alpha.b

                    return repro.alpha.b
                """
            ),
            "repro/alpha/b.py": ARCH001_B_SRC,
        }
        findings, _ = lint_sources(sources, select=["ARCH001"])
        assert findings == []

    def test_relative_imports_resolve(self):
        import ast

        sources = {
            "repro/alpha/a.py": "from . import b\n",
            "repro/alpha/b.py": "from .a import thing\n",
        }
        graph = build_import_graph(
            {label: ast.parse(text) for label, text in sources.items()}
        )
        assert graph.cycles() == [["repro/alpha/a.py", "repro/alpha/b.py"]]

    def test_main_shim_may_import_cli(self):
        findings, _ = lint_sources(
            {"repro/lint/__main__.py": ARCH003_SRC}, select=["ARCH"]
        )
        assert findings == []


class TestShippedTree:
    def test_tree_is_arch_clean_without_baseline(self, shipped_tree_lint):
        offenders = [
            f"{f.file}:{f.line} {f.code}"
            for f in shipped_tree_lint.findings
            if f.code.startswith("ARCH") or f.code == "LNT001"
        ]
        assert offenders == []


class TestDocsAgree:
    """docs/ARCHITECTURE.md's "Enforced layering" table IS ARCH_LAYERS."""

    def test_layer_table_matches_code(self):
        import re

        from repro.lint import ARCH_LAYERS
        from repro.lint.rules_arch import CROSS_CUTTING_PACKAGES

        text = (REPO_ROOT / "docs" / "ARCHITECTURE.md").read_text()
        documented: dict[str, int] = {}
        for match in re.finditer(r"^\| (\d+) \| ([a-z, ]+) \|$", text, re.MULTILINE):
            layer = int(match.group(1))
            for package in match.group(2).split(","):
                documented[package.strip()] = layer
        assert documented == ARCH_LAYERS
        cross = re.search(r"Cross-cutting \(importable from every layer\): (.+)\.", text)
        assert cross is not None
        assert {p.strip() for p in cross.group(1).split(",")} == set(
            CROSS_CUTTING_PACKAGES
        )
