"""SARIF 2.1.0 output: a golden document, levels and the rule index."""

from __future__ import annotations

import json
from pathlib import Path

from repro.cli import main
from repro.lint import findings_to_sarif, lint_sources

GOLDEN_SARIF = Path(__file__).parents[1] / "data" / "physlint_sarif.json"

NUM002_SRC = "def scale(num, den):\n    return num / den\n"
ARCH003_SRC = "import repro.cli\n"


class TestSarif:
    def _findings(self):
        sources = {
            "repro/core/div.py": NUM002_SRC,
            "repro/viz/shim.py": ARCH003_SRC,
        }
        findings, _ = lint_sources(sources)
        return findings

    def test_matches_golden_document(self):
        document = findings_to_sarif(self._findings(), tool_version="1.2.3")
        golden = json.loads(GOLDEN_SARIF.read_text())
        assert document == golden

    def test_levels_follow_severity(self):
        document = findings_to_sarif(self._findings())
        results = document["runs"][0]["results"]
        levels = {r["ruleId"]: r["level"] for r in results}
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
        path.write_text(NUM002_SRC)
        exit_code = main(
            ["lint-src", str(path), "--no-baseline", "--format", "sarif"]
        )
        document = json.loads(capsys.readouterr().out)
        assert exit_code == 1  # NUM002 is a warning; the default gate trips on it
        assert document["version"] == "2.1.0"
        assert [r["ruleId"] for r in document["runs"][0]["results"]] == ["NUM002"]
