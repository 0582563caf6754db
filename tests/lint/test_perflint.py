"""perflint: the PRF/ARCH rule families, hotness promotion, SARIF output.

The subsystem's acceptance criteria live here:

* a broken fixture per rule code (PRF001-PRF004, ARCH001-ARCH003)
  reports exactly that code at the expected line and exits nonzero from
  the CLI (PRF fixtures via a synthetic hotness snapshot — cold PRF
  findings are info and never gate);
* hotness promotion demonstrably flips a finding from info to error;
* the shipped tree is ARCH-clean with no hot-promoted PRF errors under
  the committed snapshot.
"""

from __future__ import annotations

import json
import textwrap
from pathlib import Path

import pytest

from repro.check import Severity
from repro.cli import main
from repro.lint import (
    Baseline,
    HotnessModel,
    build_import_graph,
    findings_to_sarif,
    lint_paths,
    lint_sources,
)
from repro.obs import PerfHistory, Tracer

REPO_ROOT = Path(__file__).parents[2]
HOTNESS_SNAPSHOT = REPO_ROOT / "benchmarks" / "baselines" / "HOTNESS.json"
GOLDEN_SARIF = Path(__file__).parents[1] / "data" / "perflint_sarif.json"

PRF001_SRC = textwrap.dedent(
    """\
    import numpy as np


    def doubled(xs):
        out = []
        for v in np.asarray(xs):
            out.append(v * 2.0)
        return out
    """
)

PRF002_SRC = textwrap.dedent(
    """\
    import numpy as np


    def fill(n):
        total = 0.0
        for i in range(n):
            buf = np.zeros(8)
            total = total + float(buf[0]) + i
        return total
    """
)

PRF003_SRC = textwrap.dedent(
    """\
    def drain(cfg, items):
        acc = 0.0
        for item in items:
            acc = acc + cfg.limit
            acc = acc + cfg.limit
            acc = acc + cfg.limit
        return acc
    """
)

PRF004_SRC = textwrap.dedent(
    """\
    def pair_count(seq):
        hits = 0
        for i in range(len(seq)):
            for j in range(i + 1, len(seq)):
                hits = hits + 1
        return hits
    """
)

ARCH001_A_SRC = "import repro.alpha.b\n"
ARCH001_B_SRC = "import repro.alpha.a\n"
ARCH002_SRC = "from repro.check.limits import COUPLING_CLAMP_TOLERANCE\n"
ARCH003_SRC = "import repro.cli\n"

#: code -> (sources, offending label, expected line).
CASES: dict[str, tuple[dict[str, str], str, int]] = {
    "PRF001": ({"repro/coupling/kern.py": PRF001_SRC}, "repro/coupling/kern.py", 6),
    "PRF002": ({"repro/placement/alloc.py": PRF002_SRC}, "repro/placement/alloc.py", 7),
    "PRF003": ({"repro/placement/hoist.py": PRF003_SRC}, "repro/placement/hoist.py", 4),
    "PRF004": ({"repro/placement/pairs.py": PRF004_SRC}, "repro/placement/pairs.py", 4),
    "ARCH001": (
        {"repro/alpha/a.py": ARCH001_A_SRC, "repro/alpha/b.py": ARCH001_B_SRC},
        "repro/alpha/a.py",
        1,
    ),
    "ARCH002": ({"repro/geometry/shapes.py": ARCH002_SRC}, "repro/geometry/shapes.py", 1),
    "ARCH003": ({"repro/viz/shim.py": ARCH003_SRC}, "repro/viz/shim.py", 1),
}

#: Synthetic snapshot marking every PRF fixture module hot (span names are
#: the modules' dotted paths, so the module-cover mapping applies).
HOT_FIXTURE_SPANS = {
    "coupling.kern": 1.0,
    "placement.alloc": 1.0,
    "placement.hoist": 1.0,
    "placement.pairs": 1.0,
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


def _write_snapshot(tmp_path: Path) -> Path:
    path = tmp_path / "hotness.json"
    HotnessModel(shares=dict(HOT_FIXTURE_SPANS), source="test").save(path)
    return path


class TestBrokenFixtures:
    @pytest.mark.parametrize("code", sorted(CASES))
    def test_reports_exact_code_and_line(self, code):
        sources, label, line = CASES[code]
        findings, _ = lint_sources(sources, select=[code])
        assert [(f.code, f.file, f.line) for f in findings] == [(code, label, line)]

    @pytest.mark.parametrize("code", sorted(CASES))
    def test_cli_exits_nonzero(self, code, tmp_path, capsys):
        tree = _write_tree(tmp_path)
        snapshot = _write_snapshot(tmp_path)
        _sources, label, line = CASES[code]
        exit_code = main(
            [
                "lint-src",
                str(tree),
                "--no-baseline",
                "--select",
                code,
                "--hotness",
                str(snapshot),
            ]
        )
        out = capsys.readouterr().out
        assert exit_code == 2
        assert code in out
        assert f"{label}:{line}" in out


class TestHotnessPromotion:
    LABEL = "repro/coupling/kern.py"

    def test_cold_finding_stays_info(self):
        findings, _ = lint_sources({self.LABEL: PRF001_SRC}, select=["PRF"])
        assert [f.severity for f in findings] == [Severity.INFO]

    def test_hot_finding_becomes_error(self):
        model = HotnessModel(shares={"coupling.kern": 0.5})
        findings, _ = lint_sources(
            {self.LABEL: PRF001_SRC}, select=["PRF"], hotness=model
        )
        assert [f.severity for f in findings] == [Severity.ERROR]
        assert findings[0].message.endswith("[hot path]")

    def test_unrelated_hot_span_does_not_promote(self):
        model = HotnessModel(shares={"routing.route": 0.9})
        findings, _ = lint_sources(
            {self.LABEL: PRF001_SRC}, select=["PRF"], hotness=model
        )
        assert [f.severity for f in findings] == [Severity.INFO]

    def test_arch_findings_are_never_promoted_twice(self):
        # ARCH is already error; promotion only touches PRF codes.
        model = HotnessModel(shares={"viz.shim": 1.0})
        findings, _ = lint_sources(
            {"repro/viz/shim.py": ARCH003_SRC}, select=["ARCH"], hotness=model
        )
        assert [f.severity for f in findings] == [Severity.ERROR]
        assert "[hot path]" not in findings[0].message

    def test_cli_exit_flips_with_snapshot(self, tmp_path, capsys):
        path = tmp_path / "repro" / "coupling" / "kern.py"
        path.parent.mkdir(parents=True)
        path.write_text(PRF001_SRC)
        tree = str(tmp_path / "repro")
        cold = main(["lint-src", tree, "--no-baseline", "--select", "PRF"])
        capsys.readouterr()
        snapshot = _write_snapshot(tmp_path)
        hot = main(
            [
                "lint-src",
                tree,
                "--no-baseline",
                "--select",
                "PRF",
                "--hotness",
                str(snapshot),
            ]
        )
        capsys.readouterr()
        assert cold == 0  # info findings never gate
        assert hot == 2

    def test_cli_rejects_malformed_snapshot(self, tmp_path, capsys):
        snapshot = tmp_path / "bad.json"
        snapshot.write_text('{"schema": "something-else/9"}')
        exit_code = main(
            ["lint-src", str(tmp_path), "--no-baseline", "--hotness", str(snapshot)]
        )
        assert exit_code == 2
        assert "hotness" in capsys.readouterr().err


class TestSelectFamilies:
    def test_select_prf_keeps_only_prf(self):
        findings, _ = lint_sources(_all_sources(), select=["PRF"])
        codes = sorted({f.code for f in findings})
        assert codes == ["PRF001", "PRF002", "PRF003", "PRF004"]

    def test_select_arch_keeps_only_arch(self):
        findings, _ = lint_sources(_all_sources(), select=["ARCH"])
        codes = sorted({f.code for f in findings})
        assert codes == ["ARCH001", "ARCH002", "ARCH003"]

    def test_mixed_select_with_exact_code(self):
        findings, _ = lint_sources(_all_sources(), select=["ARCH003", "PRF004"])
        codes = sorted({f.code for f in findings})
        assert codes == ["ARCH003", "PRF004"]


class TestBaselineRoundTrip:
    def test_write_then_clean(self, tmp_path, capsys):
        tree = _write_tree(tmp_path)
        snapshot = _write_snapshot(tmp_path)
        baseline_path = tmp_path / "perf_baseline.json"
        wrote = main(
            [
                "lint-src",
                str(tree),
                "--no-baseline",
                "--select",
                "PRF,ARCH",
                "--hotness",
                str(snapshot),
                "--write-baseline",
                str(baseline_path),
            ]
        )
        capsys.readouterr()
        assert wrote == 0
        baseline = Baseline.load(baseline_path)
        rerun = main(
            [
                "lint-src",
                str(tree),
                "--select",
                "PRF,ARCH",
                "--hotness",
                str(snapshot),
                "--baseline",
                str(baseline_path),
            ]
        )
        capsys.readouterr()
        assert rerun == 0
        # The round-tripped baseline waives both new families.
        result = lint_paths([tree], baseline=baseline, select=["PRF", "ARCH"])
        assert result.findings == []
        assert result.baselined == len(CASES)


class TestHotnessModel:
    def test_save_load_round_trip(self, tmp_path):
        model = HotnessModel(
            shares={"coupling.field_solve": 0.25, "parallel.worker": 0.5},
            threshold=0.1,
            source="unit-test",
        )
        path = tmp_path / "snap.json"
        model.save(path)
        loaded = HotnessModel.load(path)
        assert loaded.shares == model.shares
        assert loaded.threshold == model.threshold
        assert loaded.source == "unit-test"

    def test_load_rejects_wrong_schema(self, tmp_path):
        path = tmp_path / "snap.json"
        path.write_text('{"schema": "other/1", "spans": {}}')
        with pytest.raises(ValueError, match="schema"):
            HotnessModel.load(path)

    def test_load_rejects_invalid_json(self, tmp_path):
        path = tmp_path / "snap.json"
        path.write_text("{not json")
        with pytest.raises(ValueError, match="JSON"):
            HotnessModel.load(path)

    def test_load_rejects_non_object_spans(self, tmp_path):
        path = tmp_path / "snap.json"
        path.write_text(json.dumps({"schema": "hotness-snapshot/1", "spans": [1, 2]}))
        with pytest.raises(ValueError, match="spans"):
            HotnessModel.load(path)

    def test_hot_spans_sorted_and_thresholded(self):
        model = HotnessModel(
            shares={"a.slow": 0.3, "b.fast": 0.6, "c.cold": 0.01, "run": 0.99},
            threshold=0.05,
        )
        assert model.hot_spans == ["b.fast", "a.slow"]

    def test_span_extending_module_path_marks_module_hot(self):
        model = HotnessModel(shares={"coupling.sweep.distance": 0.5})
        assert model.is_hot("repro/coupling/sweep.py", "distance_sweep")
        assert model.is_hot("repro/coupling/sweep.py", "<module>")

    def test_bare_package_span_does_not_mark_submodules_hot(self):
        model = HotnessModel(shares={"coupling": 0.9})
        assert not model.is_hot("repro/coupling/sweep.py", "distance_sweep")

    def test_function_token_mapping(self):
        model = HotnessModel(shares={"placement.run": 0.5})
        assert model.is_hot("repro/placement/placer.py", "AutoPlacer.run")
        assert not model.is_hot("repro/placement/placer.py", "AutoPlacer._place_one")
        assert not model.is_hot("repro/viz/svg.py", "render_board_svg")

    def test_from_history_aggregates_shares(self, tmp_path):
        def report(wall: float):
            tracer = Tracer(meta={"command": "demo"})
            with tracer.span("coupling.field_solve"):
                pass
            out = tracer.report()
            out.root.wall_s = wall
            out.find("coupling.field_solve").wall_s = wall / 2
            return out

        store = tmp_path / "history.jsonl"
        history = PerfHistory(store)
        history.append(report(1.0), key="a")
        history.append(report(3.0), key="b")
        model = HotnessModel.from_history(store, threshold=0.25)
        assert model.shares["coupling.field_solve"] == pytest.approx(0.5)
        assert "run" not in model.shares
        assert model.hot_spans == ["coupling.field_solve"]

    def test_from_history_reads_the_latest_record_per_key(self, tmp_path):
        def report(span: str):
            tracer = Tracer(meta={"command": "demo"})
            with tracer.span(span):
                pass
            out = tracer.report()
            out.root.wall_s = 1.0
            out.find(span).wall_s = 0.8
            return out

        store = tmp_path / "history.jsonl"
        history = PerfHistory(store)
        history.append(report("parallel.worker"), key="a")
        history.append(report("circuit.ac_sweep"), key="a")
        model = HotnessModel.from_history(store, threshold=0.25)
        # The older row's span is gone from the code it describes.
        assert model.shares == {"circuit.ac_sweep": pytest.approx(0.8)}

    def test_from_history_empty_store(self, tmp_path):
        model = HotnessModel.from_history(tmp_path / "missing.jsonl")
        assert model.shares == {}
        assert model.hot_spans == []


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


class TestSarif:
    def _findings(self):
        sources = {
            "repro/coupling/kern.py": PRF001_SRC,
            "repro/core/div.py": "def scale(num, den):\n    return num / den\n",
            "repro/viz/shim.py": ARCH003_SRC,
        }
        model = HotnessModel(shares={"coupling.kern": 1.0})
        findings, _ = lint_sources(sources, hotness=model)
        return findings

    def test_matches_golden_document(self):
        document = findings_to_sarif(self._findings(), tool_version="1.2.3")
        golden = json.loads(GOLDEN_SARIF.read_text())
        assert document == golden

    def test_levels_follow_severity(self):
        document = findings_to_sarif(self._findings())
        results = document["runs"][0]["results"]
        levels = {r["ruleId"]: r["level"] for r in results}
        assert levels["PRF001"] == "error"  # promoted by the hot span
        assert levels["NUM002"] == "warning"
        assert levels["ARCH003"] == "error"

    def test_rule_index_consistent(self):
        document = findings_to_sarif(self._findings())
        run = document["runs"][0]
        rules = [rule["id"] for rule in run["tool"]["driver"]["rules"]]
        assert rules == sorted(rules)
        for result in run["results"]:
            assert rules[result["ruleIndex"]] == result["ruleId"]

    def test_cli_sarif_output(self, tmp_path, capsys):
        path = tmp_path / "div.py"
        path.write_text("def scale(num, den):\n    return num / den\n")
        exit_code = main(
            ["lint-src", str(path), "--no-baseline", "--format", "sarif"]
        )
        document = json.loads(capsys.readouterr().out)
        assert exit_code == 1  # NUM002 is a warning; the default gate trips on it
        assert document["version"] == "2.1.0"
        assert [r["ruleId"] for r in document["runs"][0]["results"]] == ["NUM002"]


class TestShippedTree:
    def test_tree_is_arch_clean_without_baseline(self, shipped_tree_lint):
        offenders = [
            f"{f.file}:{f.line} {f.code}"
            for f in shipped_tree_lint.findings
            if f.code.startswith("ARCH") or f.code == "LNT001"
        ]
        assert offenders == []

    def test_tree_has_no_hot_prf_errors_under_committed_snapshot(self, shipped_tree_lint):
        hotness = HotnessModel.load(HOTNESS_SNAPSHOT)
        assert hotness.hot_spans  # the committed snapshot is non-trivial
        hot = [
            f
            for f in shipped_tree_lint.findings
            if (f.code.startswith("PRF") or f.code == "LNT001")
            and f.severity >= Severity.ERROR
        ]
        assert hot == []


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

    def test_perflint_doc_lists_every_rule_code(self):
        from repro.lint import lint_rule_specs

        text = (REPO_ROOT / "docs" / "PERFLINT.md").read_text()
        for spec in lint_rule_specs():
            if spec.code.startswith(("PRF", "ARCH")):
                assert spec.code in text, f"{spec.code} missing from docs/PERFLINT.md"
