"""Tests for the flight-recorder HTML and the streaming CLI surface."""

import json
from datetime import datetime

import pytest

from repro import obs
from repro.cli import main
from repro.io import write_problem
from repro.obs import (
    PerfHistory,
    RunReport,
    Tracer,
    compare,
    render_flight_html,
    validate_event_dict,
)
from repro.placement import AutoPlacer

from conftest import build_small_problem


@pytest.fixture(autouse=True)
def _restore_global_tracer():
    yield
    obs.disable()


def _traced_report(meta=None):
    tracer = Tracer(meta=meta or {"command": "rules"})
    with tracer.span("flow.rules"):
        tracer.count("coupling.cache_hits", 3)
        tracer.count("coupling.cache_misses", 1)
    tracer.gauge("proc.rss_peak_bytes", 1e8)
    return tracer.report(extra_meta={"status": "ok"})


def _events():
    return [
        {"schema": 1, "seq": 1, "ts": 100.0, "kind": "stage", "name": "rules",
         "attrs": {"status": "start"}},
        {"schema": 1, "seq": 2, "ts": 100.1, "kind": "span_open",
         "name": "flow.rules", "path": "run/flow.rules"},
        {"schema": 1, "seq": 3, "ts": 100.9, "kind": "span_close",
         "name": "flow.rules", "path": "run/flow.rules", "value": 0.8},
        {"schema": 1, "seq": 4, "ts": 101.0, "kind": "stage", "name": "rules",
         "attrs": {"status": "done"}},
    ]


class TestRenderFlightHtml:
    def test_minimal_report_renders(self):
        html = render_flight_html(_traced_report())
        assert html.startswith("<!DOCTYPE html>")
        assert "Span tree" in html
        assert "flow.rules" in html
        assert "Counters" in html
        assert "Gauges" in html
        # Optional sections absent without their inputs.
        assert "Event timeline" not in html
        assert "Recent history" not in html
        assert "Regression verdict" not in html

    def test_event_timeline_and_stage_strip(self):
        html = render_flight_html(_traced_report(), events=_events())
        assert "Event timeline" in html
        assert "4 event(s)" in html
        assert "<svg" in html  # the stage strip
        assert "kind-stage" in html

    def test_long_event_log_elides_middle(self):
        events = [
            {"schema": 1, "seq": i, "ts": float(i), "kind": "counter",
             "name": f"c{i}", "value": 1.0}
            for i in range(1, 402)
        ]
        html = render_flight_html(_traced_report(), events=events)
        assert "elided" in html
        assert "c1</td>" in html  # head kept
        assert "c401</td>" in html  # tail kept
        assert "c200</td>" not in html  # middle dropped

    def test_history_and_verdict_sections(self, tmp_path):
        report = _traced_report()
        history = PerfHistory(tmp_path / "h.jsonl")
        history.append(report, key="rules")
        history.append(report, key="rules")
        records = history.last(key="rules", n=5)
        verdict = compare(records[0].report, report)
        html = render_flight_html(report, history=records, verdict=verdict)
        assert "Recent history" in html
        assert "2 stored run(s)" in html
        assert "Regression verdict" in html
        assert 'class="ok"' in html

    def test_escapes_hostile_meta(self):
        report = _traced_report(meta={"command": "<script>alert(1)</script>"})
        html = render_flight_html(report, title="<b>t</b>")
        assert "<script>alert(1)" not in html
        assert "&lt;script&gt;" in html
        assert "<b>t</b>" not in html

    def test_deterministic(self):
        report = _traced_report()
        assert render_flight_html(report, events=_events()) == render_flight_html(
            report, events=_events()
        )


@pytest.fixture
def placed_file(tmp_path):
    problem = build_small_problem()
    AutoPlacer(problem).run()
    path = tmp_path / "placed.txt"
    path.write_text(write_problem(problem, title="placed"))
    return path


class TestCliEventStream:
    def test_events_out_writes_valid_monotonic_log(
        self, placed_file, tmp_path, capsys
    ):
        events_path = tmp_path / "events.jsonl"
        metrics_path = tmp_path / "metrics.json"
        code = main(
            [
                "drc",
                str(placed_file),
                "--events-out",
                str(events_path),
                "--metrics-out",
                str(metrics_path),
            ]
        )
        assert code == 0
        assert f"wrote {events_path}" in capsys.readouterr().out
        lines = events_path.read_text().splitlines()
        assert lines
        seqs = []
        kinds = set()
        for line in lines:
            data = json.loads(line)
            assert validate_event_dict(data) == []
            seqs.append(data["seq"])
            kinds.add(data["kind"])
        assert seqs == list(range(1, len(seqs) + 1))
        # Sampler gauges always appear (stop() takes a final sample).
        gauge_names = {
            json.loads(line)["name"]
            for line in lines
            if json.loads(line)["kind"] == "gauge"
        }
        assert "proc.rss_peak_bytes" in gauge_names

    def test_started_at_stamped_into_report_meta(
        self, placed_file, tmp_path, capsys
    ):
        metrics_path = tmp_path / "metrics.json"
        assert main(["drc", str(placed_file), "--metrics-out", str(metrics_path)]) == 0
        capsys.readouterr()
        report = RunReport.from_json(metrics_path.read_text())
        stamp = report.meta["started_at"]
        parsed = datetime.fromisoformat(stamp)
        assert parsed.tzinfo is not None  # explicit UTC offset

    def test_live_renders_progress_to_stderr(self, placed_file, capsys):
        assert main(["drc", str(placed_file), "--live"]) == 0
        captured = capsys.readouterr()
        assert "ev " in captured.err  # the live status line painted

    def test_events_out_missing_dir_fails_fast(self, placed_file, tmp_path, capsys):
        with pytest.raises(SystemExit):
            main(
                [
                    "drc",
                    str(placed_file),
                    "--events-out",
                    str(tmp_path / "no" / "such" / "dir" / "e.jsonl"),
                ]
            )


class TestCliPerfFlight:
    def _write_run(self, tmp_path):
        report = _traced_report()
        path = tmp_path / "metrics.json"
        path.write_text(report.to_json())
        return path

    def test_renders_html(self, tmp_path, capsys):
        report_path = self._write_run(tmp_path)
        events_path = tmp_path / "events.jsonl"
        events_path.write_text(
            "\n".join(json.dumps(e) for e in _events()) + "\n"
        )
        out = tmp_path / "flight.html"
        code = main(
            [
                "perf",
                "flight",
                str(report_path),
                "--events",
                str(events_path),
                "--store",
                str(tmp_path / "empty-history.jsonl"),
                "-o",
                str(out),
            ]
        )
        assert code == 0
        assert f"wrote {out}" in capsys.readouterr().out
        html = out.read_text()
        assert "Span tree" in html
        assert "Event timeline" in html

    def test_history_drives_verdict(self, tmp_path, capsys):
        store = tmp_path / "history.jsonl"
        first = tmp_path / "first.json"
        first.write_text(_traced_report().to_json())
        report_path = self._write_run(tmp_path)
        for path in (first, report_path):
            assert main(["perf", "record", str(path), "--store", str(store)]) == 0
        out = tmp_path / "flight.html"
        code = main(
            ["perf", "flight", str(report_path), "--store", str(store), "-o", str(out)]
        )
        assert code == 0
        capsys.readouterr()
        html = out.read_text()
        assert "2 stored run(s)" in html
        assert "Regression verdict" in html

    def test_own_record_is_not_its_baseline(self, tmp_path, capsys):
        report_path = self._write_run(tmp_path)
        store = tmp_path / "history.jsonl"
        assert main(["perf", "record", str(report_path), "--store", str(store)]) == 0
        out = tmp_path / "flight.html"
        code = main(
            ["perf", "flight", str(report_path), "--store", str(store), "-o", str(out)]
        )
        assert code == 0
        capsys.readouterr()
        html = out.read_text()
        assert "Recent history" in html
        assert "Regression verdict" not in html

    def test_unstored_run_diffs_against_last_record(self, tmp_path, capsys):
        stored = tmp_path / "stored.json"
        stored.write_text(_traced_report().to_json())
        store = tmp_path / "history.jsonl"
        assert main(["perf", "record", str(stored), "--store", str(store)]) == 0
        out = tmp_path / "flight.html"
        argv = ["perf", "flight", str(self._write_run(tmp_path))]
        assert main([*argv, "--store", str(store), "-o", str(out)]) == 0
        capsys.readouterr()
        assert "Regression verdict" in out.read_text()

    def test_malformed_event_lines_skipped(self, tmp_path, capsys):
        report_path = self._write_run(tmp_path)
        events_path = tmp_path / "events.jsonl"
        good = json.dumps(_events()[0])
        events_path.write_text(f"{good}\nnot json\n{{\"seq\": -1}}\n")
        out = tmp_path / "flight.html"
        code = main(
            [
                "perf",
                "flight",
                str(report_path),
                "--events",
                str(events_path),
                "--store",
                str(tmp_path / "empty.jsonl"),
                "-o",
                str(out),
            ]
        )
        assert code == 0
        captured = capsys.readouterr()
        assert "skipped 2 malformed event line(s)" in captured.err
        assert "1 event(s)" in out.read_text()

    def test_legacy_observe_lines_skipped(self, tmp_path, capsys):
        # Event logs written while the tracer still had histograms carry
        # ``observe`` lines, a kind the schema no longer has.
        report_path = self._write_run(tmp_path)
        events_path = tmp_path / "events.jsonl"
        good = _events()[0]
        legacy = dict(good, seq=good["seq"] + 1, kind="observe", name="coupling.pair_seconds")
        events_path.write_text(f"{json.dumps(good)}\n{json.dumps(legacy)}\n")
        out = tmp_path / "flight.html"
        argv = ["perf", "flight", str(report_path), "--events", str(events_path)]
        code = main([*argv, "--store", str(tmp_path / "empty.jsonl"), "-o", str(out)])
        assert code == 0
        assert "skipped 1 malformed event line(s)" in capsys.readouterr().err
        assert "1 event(s)" in out.read_text()

    def test_missing_report_fails(self, tmp_path, capsys):
        code = main(["perf", "flight", str(tmp_path / "nope.json")])
        assert code == 2
        assert "cannot read" in capsys.readouterr().err
