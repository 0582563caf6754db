"""Unit tests for the report exporters (repro.obs.export)."""

import json
from pathlib import Path

from repro.obs import (
    RunReport,
    Span,
    Tracer,
    chrome_trace_json,
    to_chrome_trace,
)

GOLDEN = Path(__file__).parent / "data" / "chrome_trace_golden.json"


def golden_report() -> RunReport:
    """A fixed small report with exact binary-fraction times (stable JSON)."""
    root = Span("run")
    root.count = 1
    root.wall_s = 1.0
    rules = root.child("flow.rules")
    rules.count = 1
    rules.wall_s = 0.5
    solve = rules.child("coupling.field_solve")
    solve.count = 4
    solve.wall_s = 0.25
    solve.counters["peec.filament_pairs"] = 128.0
    placement = root.child("flow.placement")
    placement.count = 2
    placement.wall_s = 0.375
    return RunReport(
        root=root,
        gauges={"mem.flow.rules.peak_bytes": 2048.0},
        meta={"command": "demo", "status": "ok"},
    )


class TestChromeTrace:
    def test_event_structure(self):
        trace = to_chrome_trace(golden_report())
        events = trace["traceEvents"]
        assert [e["name"] for e in events] == [
            "run",
            "flow.rules",
            "coupling.field_solve",
            "flow.placement",
        ]
        assert all(e["ph"] == "X" for e in events)
        by_name = {e["name"]: e for e in events}
        # Durations are wall seconds in microseconds.
        assert by_name["run"]["dur"] == 1_000_000.0
        assert by_name["flow.rules"]["dur"] == 500_000.0

    def test_children_nest_within_parents(self):
        trace = to_chrome_trace(golden_report())
        by_name = {e["name"]: e for e in trace["traceEvents"]}
        parent = by_name["flow.rules"]
        child = by_name["coupling.field_solve"]
        assert child["ts"] >= parent["ts"]
        assert child["ts"] + child["dur"] <= parent["ts"] + parent["dur"] + 1e-9

    def test_siblings_laid_out_sequentially(self):
        trace = to_chrome_trace(golden_report())
        by_name = {e["name"]: e for e in trace["traceEvents"]}
        first = by_name["flow.rules"]
        second = by_name["flow.placement"]
        assert second["ts"] == first["ts"] + first["dur"]

    def test_counters_and_other_data(self):
        trace = to_chrome_trace(golden_report())
        by_name = {e["name"]: e for e in trace["traceEvents"]}
        args = by_name["coupling.field_solve"]["args"]
        assert args["count"] == 4
        assert args["counters"] == {"peec.filament_pairs": 128.0}
        other = trace["otherData"]
        assert other["meta"]["status"] == "ok"
        assert other["gauges"]["mem.flow.rules.peak_bytes"] == 2048.0
        assert other["counters_total"]["peec.filament_pairs"] == 128.0

    def test_golden_file(self):
        """The serialised trace is pinned byte-for-byte.

        Regenerate deliberately (after reviewing the diff) with:
        ``python -c "import tests.test_obs_export as t; t.regenerate_golden()"``
        """
        assert chrome_trace_json(golden_report()) + "\n" == GOLDEN.read_text()

    def test_from_real_tracer(self):
        tracer = Tracer(meta={"command": "x"})
        with tracer.span("a"):
            with tracer.span("b"):
                pass
        report = tracer.report()
        trace = to_chrome_trace(report)
        assert len(trace["traceEvents"]) == 3
        text = json.dumps(trace)
        assert json.loads(text)["displayTimeUnit"] == "ms"


def regenerate_golden() -> None:  # pragma: no cover - maintenance helper
    GOLDEN.parent.mkdir(exist_ok=True)
    GOLDEN.write_text(chrome_trace_json(golden_report()) + "\n")
    print(f"wrote {GOLDEN}")
