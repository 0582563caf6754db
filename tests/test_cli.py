"""Unit tests for the command-line interface."""

import re

import pytest

from repro.cli import build_parser, main
from repro.io import read_problem, write_problem
from repro.placement import AutoPlacer

from conftest import build_small_problem


@pytest.fixture
def problem_file(tmp_path):
    path = tmp_path / "board.txt"
    path.write_text(write_problem(build_small_problem(), title="cli test"))
    return path


@pytest.fixture
def placed_file(tmp_path):
    problem = build_small_problem()
    AutoPlacer(problem).run()
    path = tmp_path / "placed.txt"
    path.write_text(write_problem(problem, title="placed"))
    return path


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_place_flags(self):
        args = build_parser().parse_args(
            ["place", "x.txt", "--baseline", "--no-rotation"]
        )
        assert args.baseline and args.no_rotation


class TestPlaceCommand:
    def test_place_writes_output_and_svg(self, problem_file, tmp_path, capsys):
        out = tmp_path / "placed.txt"
        svg = tmp_path / "board.svg"
        code = main(["place", str(problem_file), "-o", str(out), "--svg", str(svg)])
        assert code == 0
        assert "violations: 0" in capsys.readouterr().out
        placed = read_problem(out.read_text())
        assert all(c.is_placed for c in placed.components.values())
        assert svg.read_text().startswith("<svg")

    def test_baseline_mode_exit_code(self, problem_file, capsys):
        # Baseline ignores min distances; exit code reflects the DRC of the
        # checks it ran (body/keepin), which pass.
        code = main(["place", str(problem_file), "--baseline"])
        assert code == 0

    def test_place_failure_exit_code(self, tmp_path):
        # A board far too small for the parts.
        problem = build_small_problem()
        from repro.geometry import Polygon2D
        from repro.placement import Board

        problem.boards = [Board(0, Polygon2D.rectangle(0, 0, 0.015, 0.015))]
        path = tmp_path / "tiny.txt"
        path.write_text(write_problem(problem))
        assert main(["place", str(path)]) == 2


class TestDrcCommand:
    def test_clean_layout(self, placed_file, capsys):
        code = main(["drc", str(placed_file)])
        out = capsys.readouterr().out
        assert code == 0
        assert "0 violation(s)" in out
        assert "GREEN" in out

    def test_violating_layout(self, tmp_path, capsys):
        problem = build_small_problem()
        from repro.geometry import Placement2D

        for i, comp in enumerate(problem.components.values()):
            comp.placement = Placement2D.at(0.02 + i * 0.001, 0.02)
        path = tmp_path / "bad.txt"
        path.write_text(write_problem(problem))
        code = main(["drc", str(path)])
        out = capsys.readouterr().out
        assert code == 1
        assert "RED" in out

    def test_csv_export(self, placed_file, tmp_path):
        csv_path = tmp_path / "markers.csv"
        main(["drc", str(placed_file), "--csv", str(csv_path)])
        text = csv_path.read_text()
        assert text.startswith("ref_a,ref_b,emd_mm,distance_mm,satisfied")


class TestRulesCommand:
    def test_derives_and_writes(self, tmp_path, capsys):
        # Strip existing rules so the command derives fresh ones.
        problem = build_small_problem(with_rules=False)
        src = tmp_path / "bare.txt"
        src.write_text(write_problem(problem))
        out = tmp_path / "ruled.txt"
        code = main(
            ["rules", str(src), "--k-threshold", "0.02", "--max-pairs", "4",
             "-o", str(out)]
        )
        assert code == 0
        ruled = read_problem(out.read_text())
        assert len(ruled.rules.min_distance) >= 1
        assert "PEMD" in capsys.readouterr().out


class TestPerformanceFlags:
    def _bare_file(self, tmp_path):
        problem = build_small_problem(with_rules=False)
        src = tmp_path / "bare.txt"
        src.write_text(write_problem(problem))
        return src

    def test_rules_parser_accepts_perf_flags(self):
        args = build_parser().parse_args(["rules", "board.txt", "--no-cache"])
        assert args.no_cache is True
        assert args.cache_dir is None

    @staticmethod
    def _cache_counts(output):
        """(field solves, law fits, disk hits) from the ``rules`` cache line."""
        match = re.search(
            r"coupling cache: \d+ hit\(s\), (\d+) field solve\(s\); "
            r"distance laws: \d+ hit\(s\), (\d+) fit\(s\); (\d+) from disk",
            output,
        )
        assert match is not None, output
        return tuple(int(group) for group in match.groups())

    def test_rules_warm_cache_reports_disk_hits(self, tmp_path, capsys):
        src = self._bare_file(tmp_path)
        cache_dir = tmp_path / "cache"
        argv = ["rules", str(src), "--max-pairs", "2", "--cache-dir", str(cache_dir)]
        assert main(argv) == 0
        solves, fits, disk = self._cache_counts(capsys.readouterr().out)
        assert solves > 0 and fits > 0 and disk == 0
        assert main(argv) == 0
        solves, fits, disk = self._cache_counts(capsys.readouterr().out)
        assert solves == 0 and fits == 0 and disk >= 1  # warm run answers from disk

    def test_rules_no_cache_never_touches_disk(self, tmp_path, capsys):
        src = self._bare_file(tmp_path)
        cache_dir = tmp_path / "cache"
        argv = [
            "rules", str(src), "--max-pairs", "2",
            "--cache-dir", str(cache_dir), "--no-cache",
        ]
        assert main(argv) == 0
        capsys.readouterr()
        assert not cache_dir.exists()


class TestCompactCommand:
    def test_compacts_and_reports(self, placed_file, tmp_path, capsys):
        out = tmp_path / "compact.txt"
        code = main(["compact", str(placed_file), "-o", str(out)])
        assert code == 0
        assert "compaction:" in capsys.readouterr().out
        compacted = read_problem(out.read_text())
        assert all(c.is_placed for c in compacted.components.values())


class TestRefineFlag:
    def test_place_with_refinement(self, problem_file, capsys):
        code = main(["place", str(problem_file), "--refine"])
        assert code == 0
        assert "refinement:" in capsys.readouterr().out


class TestDemoCommand:
    def test_demo_writes_artifacts(self, tmp_path, capsys):
        out_dir = tmp_path / "demo"
        metrics = tmp_path / "m.json"
        code = main(["demo", "--out-dir", str(out_dir), "--metrics-out", str(metrics)])
        assert code == 0
        assert (out_dir / "spectra.csv").exists()
        assert (out_dir / "report.md").exists()
        assert (out_dir / "baseline.svg").exists()
        assert (out_dir / "optimized.svg").exists()
        report = (out_dir / "report.md").read_text()
        assert report.startswith("# EMI design-flow report")

        # The acceptance check: the metrics JSON holds a span tree with all
        # five flow stages at nonzero wall time and populated counters.
        from repro.obs import RunReport

        run = RunReport.from_json(metrics.read_text())
        for stage in (
            "flow.simulate",
            "flow.sensitivity",
            "flow.rules",
            "flow.placement",
            "flow.verification",
        ):
            span = run.find(stage)
            assert span is not None, f"demo metrics missing {stage}"
            assert span.wall_s > 0.0
        totals = run.totals()
        assert totals["coupling.cache_misses"] > 0
        assert totals["circuit.mna_factorizations"] > 0
        assert totals["placement.components_placed"] > 0
        assert run.meta["command"] == "demo"


class TestObservabilityFlags:
    def test_place_metrics_out(self, problem_file, tmp_path, capsys):
        from repro import obs
        from repro.obs import NullTracer, RunReport

        metrics = tmp_path / "place.json"
        code = main(["place", str(problem_file), "--metrics-out", str(metrics)])
        assert code == 0
        assert f"wrote {metrics}" in capsys.readouterr().out
        run = RunReport.from_json(metrics.read_text())
        run_span = run.find("placement.run")
        assert run_span is not None and run_span.wall_s > 0
        assert run.find("placement.sequential") is not None
        assert run.totals()["placement.candidates_scored"] > 0
        # The CLI restores the null tracer afterwards.
        assert isinstance(obs.get_tracer(), NullTracer)

    def test_place_trace_prints_table(self, problem_file, capsys):
        code = main(["place", str(problem_file), "--trace"])
        assert code == 0
        out = capsys.readouterr().out
        assert "wall [s]" in out
        assert "placement.run" in out
        assert "counters:" in out

    def test_metrics_written_even_on_failure(self, tmp_path, capsys):
        problem = build_small_problem()
        from repro.geometry import Polygon2D
        from repro.placement import Board

        problem.boards = [Board(0, Polygon2D.rectangle(0, 0, 0.015, 0.015))]
        path = tmp_path / "tiny.txt"
        path.write_text(write_problem(problem))
        metrics = tmp_path / "fail.json"
        assert main(["place", str(path), "--metrics-out", str(metrics)]) == 2
        from repro.obs import RunReport

        run = RunReport.from_json(metrics.read_text())
        assert run.find("placement.run") is not None

    def test_without_flags_tracer_stays_null(self, problem_file):
        from repro import obs
        from repro.obs import NullTracer

        assert main(["place", str(problem_file)]) == 0
        assert isinstance(obs.get_tracer(), NullTracer)
