"""The committed run reports and perf history load today.

Reads files only: no benchmark runs and no timing.  Older files carry a
``histograms`` section that the current report schema no longer has;
the reader ignores it, and every other key round-trips exactly.
"""

import json
import re
from pathlib import Path

import pytest

from repro.obs import PerfHistory, RunReport

ROOT = Path(__file__).resolve().parents[1]
OUT = ROOT / "benchmarks" / "out"
BENCH_REPORTS = sorted(OUT.glob("BENCH_*.json"))
HISTORY = OUT / "perf-history.jsonl"

#: Text artefacts hold deterministic outputs only, so that a re-record of
#: unchanged code leaves them byte-identical; their wall times are spans of
#: their BENCH reports (``placement.run``, ``bench.placer.nXX``,
#: ``bench.coupling.*``).
TEXT_ARTEFACTS = sorted(OUT.glob("*.txt"))
WALL_CLOCK = re.compile(r"runtime|\d\s*(?:s|ms|us|µs)\b")


def without_histograms(data: dict) -> dict:
    return {key: value for key, value in data.items() if key != "histograms"}


def test_the_committed_reports_exist():
    assert BENCH_REPORTS and HISTORY.is_file() and len(TEXT_ARTEFACTS) >= 20


@pytest.mark.parametrize("path", BENCH_REPORTS, ids=lambda path: path.name)
def test_report_round_trips(path):
    data = json.loads(path.read_text(encoding="utf-8"))
    assert RunReport.from_dict(data).to_dict() == without_histograms(data)


def test_every_history_row_loads():
    history = PerfHistory(HISTORY)
    records = history.records()
    assert history.skipped_lines == 0
    assert len(records) == len(HISTORY.read_text(encoding="utf-8").splitlines())
    for record in records:
        assert record.report.to_dict() == without_histograms(record.report_data)
    # The history is append-only, so its legacy rows keep the ignored key covered.
    assert any("histograms" in record.report_data for record in records)


@pytest.mark.parametrize("path", BENCH_REPORTS, ids=lambda path: path.name)
def test_each_bench_report_has_its_history_row(path):
    data = json.loads(path.read_text(encoding="utf-8"))
    rows = [
        record.report_data
        for record in PerfHistory(HISTORY).records()
        if record.key == data["meta"]["benchmark"]
    ]
    assert data in rows
    run_id = data["meta"].get("run_id")
    assert run_id is None or sum(row["meta"].get("run_id") == run_id for row in rows) == 1


def test_session_fixture_work_is_reported():
    """The benchmarks share a flow built by session fixtures before any
    benchmark's tracer starts: its rule derivation and layout evaluations
    must still land in a committed report."""
    reports = [RunReport.from_json(path.read_text(encoding="utf-8")) for path in BENCH_REPORTS]
    assert any(r.find("flow.rules") and r.find("flow.verification") for r in reports)


@pytest.mark.parametrize("path", TEXT_ARTEFACTS, ids=lambda path: path.name)
def test_placement_artefacts_hold_no_wall_clock(path):
    text = path.read_text(encoding="utf-8")
    assert text and not WALL_CLOCK.search(text), WALL_CLOCK.search(text)
