"""CLI tests for the perf observatory (`repro-emi perf ...`) and the
traced-failure metrics flush."""

import json

import pytest

from repro.cli import main
from repro.obs import PerfHistory, RunReport, Span


@pytest.fixture(autouse=True)
def _pinned_environment(monkeypatch, tmp_path):
    """Every test gets its own store and a stable git SHA."""
    monkeypatch.setenv("REPRO_EMI_PERF_HISTORY", str(tmp_path / "history.jsonl"))
    monkeypatch.setenv("REPRO_EMI_GIT_SHA", "feedc0de")


def write_report(path, walls, meta=None, counters=None):
    """A report file with the given top-level span walls."""
    root = Span("run")
    root.count = 1
    root.wall_s = sum(walls.values()) or 1.0
    for name, wall in walls.items():
        child = root.child(name)
        child.count = 1
        child.wall_s = wall
        for cname, value in (counters or {}).items():
            child.counters[cname] = value
        counters = None
    RunReport(root=root, meta=meta or {"command": "demo"}).write(path)
    return path


class TestRecordAndHistory:
    def test_record_then_history(self, tmp_path, capsys):
        report = write_report(tmp_path / "m.json", {"stage": 1.0})
        assert main(["perf", "record", str(report)]) == 0
        assert main(["perf", "record", str(report), "--key", "other"]) == 0
        out = capsys.readouterr().out
        assert "recorded demo @ feedc0de" in out
        assert "recorded other @ feedc0de" in out

        assert main(["perf", "history"]) == 0
        listing = capsys.readouterr().out
        assert "demo" in listing and "other" in listing

        assert main(["perf", "history", "--key", "demo", "--format", "json"]) == 0
        records = json.loads(capsys.readouterr().out)
        assert len(records) == 1
        assert records[0]["git_sha"] == "feedc0de"

    def test_history_stats(self, tmp_path, capsys):
        for wall in (1.0, 2.0, 3.0):
            report = write_report(tmp_path / f"m{wall}.json", {"stage": wall})
            assert main(["perf", "record", str(report), "--key", "k"]) == 0
        capsys.readouterr()
        assert main(["perf", "history", "--key", "k", "--stats"]) == 0
        out = capsys.readouterr().out
        assert "3 run(s)" in out
        assert "run/stage: median 2.0000 s" in out

    def test_history_stats_requires_key(self, capsys):
        assert main(["perf", "history", "--stats"]) == 2
        assert "requires --key" in capsys.readouterr().err

    def test_record_rejects_bad_file(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        assert main(["perf", "record", str(bad)]) == 2
        assert "cannot parse" in capsys.readouterr().err

    def test_record_missing_file(self, tmp_path, capsys):
        assert main(["perf", "record", str(tmp_path / "nope.json")]) == 2
        assert "cannot read" in capsys.readouterr().err


class TestDiff:
    def test_diff_two_files(self, tmp_path, capsys):
        a = write_report(tmp_path / "a.json", {"stage": 1.0})
        b = write_report(tmp_path / "b.json", {"stage": 2.0})
        assert main(["perf", "diff", str(a), str(b)]) == 0
        out = capsys.readouterr().out
        assert "run/stage" in out
        assert "+100.0%" in out
        assert "regression" in out

    def test_diff_last_two_store_records(self, tmp_path, capsys):
        # The acceptance scenario: record two consecutive runs, then a
        # bare `perf diff` produces the per-span delta table.
        for i, wall in enumerate((1.0, 1.05)):
            report = write_report(tmp_path / f"r{i}.json", {"stage": wall})
            assert main(["perf", "record", str(report)]) == 0
        capsys.readouterr()
        assert main(["perf", "diff"]) == 0
        out = capsys.readouterr().out
        assert "run/stage" in out
        assert "+5.0%" in out
        assert "perf OK" in out

    def test_diff_needs_two_records(self, tmp_path, capsys):
        report = write_report(tmp_path / "m.json", {"stage": 1.0})
        assert main(["perf", "record", str(report)]) == 0
        assert main(["perf", "diff"]) == 2
        assert "need two stored runs" in capsys.readouterr().err

    def test_diff_rejects_single_file(self, tmp_path, capsys):
        a = write_report(tmp_path / "a.json", {"stage": 1.0})
        assert main(["perf", "diff", str(a)]) == 2
        assert "exactly two" in capsys.readouterr().err

    def test_diff_json_format(self, tmp_path, capsys):
        a = write_report(tmp_path / "a.json", {"stage": 1.0})
        b = write_report(tmp_path / "b.json", {"stage": 0.4})
        assert main(["perf", "diff", str(a), str(b), "--format", "json"]) == 0
        verdict = json.loads(capsys.readouterr().out)
        assert verdict["ok"] is True
        assert verdict["improvements"] >= 1


    def test_diff_reads_perfbench_trace_documents(self, tmp_path, capsys):
        """A perfbench trace document keeps per-name span stats under
        ``spans`` and its run reports under ``timed_run`` and ``setup_run``;
        the perf commands read the timed run."""

        def trace_document(path, wall):
            timed = write_report(tmp_path / "t.json", {"stage": wall})
            setup = write_report(tmp_path / "s.json", {"setup": 9.0})
            document = {
                "workload": "place_drc",
                "spans": {"stage": {"calls": 1, "wall_s": wall, "self_s": wall}},
                "timed_run": RunReport.from_json(timed.read_text()).to_dict(),
                "setup_run": RunReport.from_json(setup.read_text()).to_dict(),
            }
            path.write_text(json.dumps(document))
            return path

        a = trace_document(tmp_path / "trace-a.json", 1.0)
        b = trace_document(tmp_path / "trace-b.json", 2.0)
        assert main(["perf", "diff", str(a), str(b)]) == 0
        out = capsys.readouterr().out
        assert "run/stage" in out and "+100.0%" in out
        assert "run/setup" not in out
        assert main(["perf", "record", str(a)]) == 0


class TestCheck:
    """The regression verdict of a run-against-run ``perf diff``: the exit
    code is 0 either way, the verdict says whether the current run regressed."""

    def test_2x_slowdown_fails_gate(self, tmp_path, capsys):
        baseline = write_report(tmp_path / "base.json", {"stage": 1.0})
        slow = write_report(tmp_path / "slow.json", {"stage": 2.0})
        assert main(["perf", "diff", str(baseline), str(slow)]) == 0
        out = capsys.readouterr().out
        assert "run/stage  1.0000    2.0000   +100.0%  regression" in out
        assert "perf REGRESSION" in out

    def test_identical_run_passes(self, tmp_path, capsys):
        baseline = write_report(tmp_path / "base.json", {"stage": 1.0})
        same = write_report(tmp_path / "same.json", {"stage": 1.0})
        assert main(["perf", "diff", str(baseline), str(same)]) == 0
        out = capsys.readouterr().out
        assert "perf OK: 0 regression(s), 0 improvement(s)" in out

    def test_counter_regression_gates(self, tmp_path, capsys):
        baseline = write_report(
            tmp_path / "base.json", {"stage": 1.0}, counters={"solves": 100}
        )
        grown = write_report(
            tmp_path / "cur.json", {"stage": 1.0}, counters={"solves": 150}
        )
        assert main(
            ["perf", "diff", str(baseline), str(grown), "--format", "json"]
        ) == 0
        verdict = json.loads(capsys.readouterr().out)
        assert verdict["ok"] is False
        assert [
            (d["kind"], d["name"], d["status"])
            for d in verdict["deltas"]
            if d["status"] != "ok"
        ] == [("counter", "solves", "regression")]

    def test_check_json_verdict(self, tmp_path, capsys):
        baseline = write_report(tmp_path / "base.json", {"stage": 1.0})
        slow = write_report(tmp_path / "slow.json", {"stage": 2.0})
        assert main(
            ["perf", "diff", str(baseline), str(slow), "--format", "json"]
        ) == 0
        verdict = json.loads(capsys.readouterr().out)
        assert verdict["ok"] is False
        assert verdict["regressions"] >= 1
        assert any(
            d["name"] == "run/stage" and d["status"] == "regression"
            for d in verdict["deltas"]
        )


class TestExport:
    def test_chrome_export_to_file(self, tmp_path, capsys):
        report = write_report(tmp_path / "m.json", {"stage": 1.0})
        out_file = tmp_path / "trace.json"
        assert main(["perf", "export", str(report), "-o", str(out_file)]) == 0
        trace = json.loads(out_file.read_text())
        assert [e["name"] for e in trace["traceEvents"]] == ["run", "stage"]


class TestTracedFailureFlush:
    def test_error_run_flushes_partial_report(self, tmp_path, capsys):
        metrics = tmp_path / "metrics.json"
        with pytest.raises(FileNotFoundError):
            main(["place", str(tmp_path / "missing.txt"), "--metrics-out", str(metrics)])
        report = RunReport.from_json(metrics.read_text())
        assert report.meta["status"] == "error"
        assert report.meta["error_type"] == "FileNotFoundError"
        assert report.meta["command"] == "place"

    def test_ok_run_is_stamped_ok(self, tmp_path, capsys):
        board = tmp_path / "board.txt"
        from pathlib import Path

        demo = Path(__file__).parent.parent / "examples" / "boards" / "demo_board.txt"
        board.write_text(demo.read_text())
        metrics = tmp_path / "metrics.json"
        assert main(["check", str(board), "--metrics-out", str(metrics)]) == 0
        report = RunReport.from_json(metrics.read_text())
        assert report.meta["status"] == "ok"

    def test_error_report_is_recordable(self, tmp_path, capsys):
        """The flushed partial report feeds straight into the store."""
        metrics = tmp_path / "metrics.json"
        with pytest.raises(FileNotFoundError):
            main(["drc", str(tmp_path / "gone.txt"), "--metrics-out", str(metrics)])
        assert main(["perf", "record", str(metrics)]) == 0
        records = PerfHistory().records()
        assert records[-1].report_data["meta"]["status"] == "error"


class TestMemTraceCli:
    def test_mem_trace_writes_gauges(self, tmp_path, capsys):
        from pathlib import Path

        demo = Path(__file__).parent.parent / "examples" / "boards" / "demo_board.txt"
        metrics = tmp_path / "metrics.json"
        code = main(
            ["check", str(demo), "--mem-trace", "--metrics-out", str(metrics)]
        )
        assert code == 0
        report = RunReport.from_json(metrics.read_text())
        mem_gauges = [g for g in report.gauges if g.startswith("mem.")]
        assert mem_gauges, report.gauges
        assert all(report.gauges[g] >= 0 for g in mem_gauges)

    def test_mem_trace_alone_enables_tracing(self, capsys):
        from pathlib import Path

        demo = Path(__file__).parent.parent / "examples" / "boards" / "demo_board.txt"
        # --mem-trace without --trace/--metrics-out must not crash (the
        # tracer is enabled and simply discarded).
        assert main(["check", str(demo), "--mem-trace"]) == 0
