"""Unit tests for the automatic sequential placer."""

import pytest

from repro.components import FilmCapacitorX2
from repro.geometry import Cuboid, Placement2D, Polygon2D, Rect
from repro.placement import (
    AutoPlacer,
    Board,
    DesignRuleChecker,
    Keepout3D,
    PlacedComponent,
    PlacementError,
    PlacementProblem,
    PlacerWeights,
)
from repro.rules import MinDistanceRule, RuleSet

from conftest import build_small_problem


class TestAutoPlacement:
    def test_places_everything_legally(self):
        problem = build_small_problem()
        report = AutoPlacer(problem).run()
        assert report.placed_count == 7
        assert report.violations_after == 0
        assert report.legal
        assert DesignRuleChecker(problem).is_legal()

    def test_runtime_seconds_scale(self):
        problem = build_small_problem()
        report = AutoPlacer(problem).run()
        # The paper quotes seconds for 29 parts; 7 parts must be well under.
        assert report.runtime_s < 5.0

    def test_priority_order_rules_first(self):
        problem = build_small_problem()
        report = AutoPlacer(problem).run()
        # L1 carries the largest PEMD budget (30+35 mm) -> placed early;
        # D1 has no rules -> placed last among the singles.
        assert report.order.index("L1") < report.order.index("D1")

    def test_preplaced_respected(self):
        problem = build_small_problem()
        problem.components["Q1"].placement = Placement2D.at(0.04, 0.03)
        problem.components["Q1"].fixed = True
        AutoPlacer(problem).run()
        assert problem.components["Q1"].center().is_close(
            Placement2D.at(0.04, 0.03).position
        )

    def test_impossible_problem_raises(self):
        tiny = Board(0, Polygon2D.rectangle(0, 0, 0.02, 0.02))
        problem = PlacementProblem([tiny])
        for i in range(4):
            problem.add_component(PlacedComponent(f"C{i}", FilmCapacitorX2()))
        with pytest.raises(PlacementError, match="no legal location"):
            AutoPlacer(problem).run()

    def test_keepout_avoided(self):
        board = Board(
            0,
            Polygon2D.rectangle(0, 0, 0.08, 0.06),
            keepouts=[Keepout3D("k", Cuboid(Rect(0.0, 0.0, 0.04, 0.06), 0.0, 0.05))],
        )
        problem = PlacementProblem([board])
        problem.add_component(PlacedComponent("C1", FilmCapacitorX2()))
        problem.add_component(PlacedComponent("C2", FilmCapacitorX2()))
        AutoPlacer(problem).run()
        for comp in problem.placed():
            assert comp.center().x > 0.04 - 1e-9

    def test_rules_disabled_mode(self):
        problem = build_small_problem()
        report = AutoPlacer(problem, respect_min_distance=False).run()
        assert report.placed_count == 7
        # Body legality still holds in baseline mode.
        checker = DesignRuleChecker(problem)
        assert not checker.check_body_spacing()
        assert not checker.check_keepin()

    def test_weights_affect_layout(self):
        problem_a = build_small_problem()
        AutoPlacer(problem_a, weights=PlacerWeights(wirelength=5.0, compactness=0.0)).run()
        problem_b = build_small_problem()
        AutoPlacer(problem_b, weights=PlacerWeights(wirelength=0.0, compactness=5.0)).run()
        pos_a = sorted((c.center().x, c.center().y) for c in problem_a.placed())
        pos_b = sorted((c.center().x, c.center().y) for c in problem_b.placed())
        assert pos_a != pos_b

    def test_group_members_near_each_other(self):
        problem = build_small_problem()
        problem.define_group("in", ["C1", "L1"])
        problem.define_group("out", ["C3", "L2"])
        AutoPlacer(problem).run()
        from repro.placement import group_spread

        # Groups stay tighter than the board diagonal.
        assert group_spread(problem, "in") < 0.06
        assert group_spread(problem, "out") < 0.06


class TestRotationIntegration:
    def test_rotation_plan_used(self):
        problem = build_small_problem()
        report = AutoPlacer(problem, optimize_rotation=True).run()
        assert report.rotation_plan is not None
        assert report.rotation_plan.final_emd_sum <= report.rotation_plan.initial_emd_sum

    def test_no_rotation_mode(self):
        problem = build_small_problem()
        report = AutoPlacer(problem, optimize_rotation=False).run()
        assert report.rotation_plan is None
        assert report.violations_after == 0


class TestTightBoard:
    def test_dense_rules_still_placeable(self):
        # Six capacitors with mutual 20 mm rules on a 90x70 board: needs
        # both rotation and careful positioning.
        problem = PlacementProblem([Board(0, Polygon2D.rectangle(0, 0, 0.09, 0.07))])
        refs = []
        for i in range(6):
            ref = f"C{i + 1}"
            problem.add_component(PlacedComponent(ref, FilmCapacitorX2()))
            refs.append(ref)
        rules = [
            MinDistanceRule(refs[i], refs[j], pemd=0.02)
            for i in range(6)
            for j in range(i + 1, 6)
        ]
        problem.rules = RuleSet(min_distance=rules)
        report = AutoPlacer(problem).run()
        assert report.violations_after == 0


class TestScoringObservability:
    def test_one_score_span_per_candidate_search(self, monkeypatch):
        from repro import obs

        calls = []
        original = AutoPlacer.best_candidate

        def counted(self, comp, rotation_deg, spacing):
            calls.append(comp.refdes)
            return original(self, comp, rotation_deg, spacing)

        monkeypatch.setattr(AutoPlacer, "best_candidate", counted)
        problem = build_small_problem()
        tracer = obs.enable(meta={"test": "placement spans"})
        try:
            AutoPlacer(problem).run()
        finally:
            obs.disable()
        report = tracer.report()
        score = report.find("placement.score")
        assert score is not None and score.count == len(calls) >= 7
        totals = report.totals()
        assert 0 < totals["placement.candidates_legal"] < totals["placement.candidates_scored"]

    def test_area_samples_spans_cover_every_pass(self, monkeypatch):
        from repro import obs
        from repro.geometry import Polygon2D

        passes = []
        sample = Polygon2D.area_samples

        def counted(polygon, margins, spacing):
            passes.append(len(margins))
            return sample(polygon, margins, spacing)

        monkeypatch.setattr(Polygon2D, "area_samples", counted)
        problem = build_small_problem()
        tracer = obs.enable(meta={"test": "area sample spans"})
        try:
            AutoPlacer(problem).run()
        finally:
            obs.disable()
        spans = [s for _, s in tracer.report().root.walk() if s.name == "placement.area_samples"]
        # One batch span over a pass per area, then one span per lazy fill.
        areas = {a.polygon for c in problem.components.values() for a in problem.allowed_areas(c)}
        assert sum(s.count for s in spans) == 1 + len(passes) - len(areas)
        assert passes[0] > 1
