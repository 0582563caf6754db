"""Unit tests for the regression engine (repro.obs.regress)."""

from repro.obs import RunReport, Span, Tracer, compare
from repro.obs.regress import span_walls


def report_with(walls: dict[str, float], counters: dict[str, float] | None = None):
    """A flat report: root children named/timed per ``walls``."""
    root = Span("run")
    root.count = 1
    root.wall_s = sum(walls.values()) or 1.0
    for name, wall in walls.items():
        child = root.child(name)
        child.count = 1
        child.wall_s = wall
        for cname, value in (counters or {}).items():
            child.counters[cname] = value
        counters = None  # counters land on the first child only
    return RunReport(root=root)


class TestSpanWalls:
    def test_paths_are_slash_joined(self):
        tracer = Tracer()
        with tracer.span("a"), tracer.span("b"):
            pass
        walls = span_walls(tracer.report())
        assert set(walls) == {"run", "run/a", "run/a/b"}

    def test_same_name_under_different_parents_distinct(self):
        tracer = Tracer()
        with tracer.span("a"), tracer.span("hot"):
            pass
        with tracer.span("b"), tracer.span("hot"):
            pass
        walls = span_walls(tracer.report())
        assert "run/a/hot" in walls and "run/b/hot" in walls


class TestSpanClassification:
    def test_identical_runs_ok(self):
        r = report_with({"stage": 1.0})
        verdict = compare(r, r)
        assert verdict.ok
        assert all(d.status == "ok" for d in verdict.deltas)

    def test_2x_slowdown_is_regression(self):
        base = report_with({"stage": 1.0})
        slow = report_with({"stage": 2.0})
        verdict = compare(base, slow)
        assert not verdict.ok
        names = [d.name for d in verdict.regressions]
        assert "run/stage" in names

    def test_speedup_is_improvement(self):
        base = report_with({"stage": 1.0})
        fast = report_with({"stage": 0.4})
        verdict = compare(base, fast)
        assert verdict.ok
        assert any(
            d.name == "run/stage" and d.status == "improvement"
            for d in verdict.deltas
        )

    def test_micro_spans_never_flag(self):
        base = report_with({"blip": 0.0001})
        slow = report_with({"blip": 0.004})  # 40x but under the floor
        verdict = compare(base, slow)
        assert verdict.ok

    def test_new_and_missing_do_not_fail_gate(self):
        base = report_with({"old_stage": 1.0})
        cur = report_with({"new_stage": 1.0})
        verdict = compare(base, cur)
        statuses = {d.name: d.status for d in verdict.deltas if d.kind == "span"}
        assert statuses["run/old_stage"] == "missing"
        assert statuses["run/new_stage"] == "new"
        assert verdict.ok

    def test_threshold_boundary(self):
        base = report_with({"stage": 1.0})
        just_under = report_with({"stage": 1.29})
        just_over = report_with({"stage": 1.31})
        assert compare(base, just_under).ok
        assert not compare(base, just_over).ok


class TestCounters:
    def test_counter_growth_is_regression(self):
        base = report_with({"stage": 1.0}, {"peec.filament_pairs": 100})
        grown = report_with({"stage": 1.0}, {"peec.filament_pairs": 150})
        verdict = compare(base, grown)
        assert [d.name for d in verdict.regressions] == ["peec.filament_pairs"]

    def test_counter_shrink_is_improvement(self):
        base = report_with({"stage": 1.0}, {"solves": 100})
        less = report_with({"stage": 1.0}, {"solves": 50})
        verdict = compare(base, less)
        assert verdict.ok
        assert any(
            d.name == "solves" and d.status == "improvement" for d in verdict.deltas
        )

    def test_sub_unit_jitter_ignored(self):
        base = report_with({"stage": 1.0}, {"solves": 3})
        same = report_with({"stage": 1.0}, {"solves": 3.4})
        assert all(d.status in ("ok", "new") for d in compare(base, same).deltas)

    def test_zero_baseline_counter(self):
        base = report_with({"stage": 1.0}, {"solves": 0})
        grown = report_with({"stage": 1.0}, {"solves": 10})
        verdict = compare(base, grown)
        delta = next(d for d in verdict.deltas if d.name == "solves")
        assert delta.status == "regression"
        assert delta.ratio is None


class TestVerdictRendering:
    def test_to_dict_is_machine_readable(self):
        import json

        base = report_with({"stage": 1.0})
        verdict = compare(base, report_with({"stage": 2.0}))
        data = json.loads(json.dumps(verdict.to_dict()))
        assert data["ok"] is False
        # Both run/stage and the root (whose wall is the sum) regress.
        assert data["regressions"] == 2
        assert data["thresholds"]["wall_rel"] == 0.30
        kinds = {d["kind"] for d in data["deltas"]}
        assert kinds == {"span"}

    def test_table_sorts_regressions_first(self):
        base = report_with({"fast": 1.0, "slow": 1.0})
        cur = report_with({"fast": 0.9, "slow": 3.0})
        lines = compare(base, cur).table().splitlines()
        assert "slow" in lines[1]
        assert "regression" in lines[1]

    def test_table_messages(self):
        base = report_with({"stage": 1.0})
        verdict = compare(base, report_with({"stage": 1.0}))
        assert verdict.table(show_ok=False) == "(all metrics within thresholds)"

    def test_summary_counts(self):
        base = report_with({"a": 1.0, "b": 1.0})
        cur = report_with({"a": 5.0, "b": 0.2})
        summary = compare(base, cur).summary()
        # run/a and the root regress; run/b improves.
        assert "2 regression(s)" in summary
        assert "1 improvement(s)" in summary
