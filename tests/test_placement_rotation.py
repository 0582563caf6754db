"""Unit tests for the optimal-rotation step."""

import pytest

from repro.components import BobbinChoke, FilmCapacitorX2
from repro.geometry import Placement2D, Polygon2D
from repro.placement import (
    Board,
    PlacedComponent,
    PlacementProblem,
    RotationOptimizer,
)
from repro.placement.rotation import MAX_PASSES
from repro.rules import MinDistanceRule, RuleSet

from conftest import build_small_problem


def two_cap_problem() -> PlacementProblem:
    problem = PlacementProblem([Board(0, Polygon2D.rectangle(0, 0, 0.1, 0.1))])
    problem.add_component(PlacedComponent("C1", FilmCapacitorX2()))
    problem.add_component(PlacedComponent("C2", FilmCapacitorX2()))
    problem.rules = RuleSet(min_distance=[MinDistanceRule("C1", "C2", pemd=0.03)])
    return problem


class TestOptimizer:
    def test_two_caps_rotated_perpendicular(self):
        plan = RotationOptimizer(two_cap_problem()).optimize()
        r1 = plan.rotations_deg["C1"]
        r2 = plan.rotations_deg["C2"]
        assert abs((r1 - r2) % 180.0) == pytest.approx(90.0)
        assert plan.final_emd_sum == pytest.approx(0.0, abs=1e-9)
        assert plan.improvement == pytest.approx(0.03, abs=1e-9)

    def test_residual_rule_limits_gain(self):
        problem = two_cap_problem()
        problem.rules = RuleSet(
            min_distance=[MinDistanceRule("C1", "C2", pemd=0.03, residual=0.8)]
        )
        plan = RotationOptimizer(problem).optimize()
        assert plan.final_emd_sum >= 0.03 * 0.8 - 1e-9

    def test_monotone_improvement(self):
        plan = RotationOptimizer(build_small_problem()).optimize()
        assert plan.final_emd_sum <= plan.initial_emd_sum

    def test_fixed_component_rotation_kept(self):
        problem = two_cap_problem()
        problem.components["C1"].fixed = True
        problem.components["C1"].placement = Placement2D.at(0.02, 0.02, 0.0)
        plan = RotationOptimizer(problem).optimize()
        assert plan.rotations_deg["C1"] == pytest.approx(0.0)
        # C2 must do all the decoupling work.
        assert plan.rotations_deg["C2"] % 180.0 == pytest.approx(90.0)

    def test_vertical_axis_not_rotated(self):
        problem = PlacementProblem([Board(0, Polygon2D.rectangle(0, 0, 0.1, 0.1))])
        problem.add_component(
            PlacedComponent("LV", BobbinChoke(orientation="vertical"))
        )
        problem.add_component(PlacedComponent("C1", FilmCapacitorX2()))
        problem.rules = RuleSet(min_distance=[MinDistanceRule("LV", "C1", pemd=0.03)])
        plan = RotationOptimizer(problem).optimize()
        # The vertical axis means no rotation can reduce the rule: the full
        # PEMD remains.
        assert plan.final_emd_sum == pytest.approx(0.03, rel=1e-3)

    def test_terminates_within_pass_budget(self):
        plan = RotationOptimizer(build_small_problem()).optimize()
        assert 1 <= plan.passes <= MAX_PASSES

    def test_respects_allowed_rotations(self):
        problem = two_cap_problem()
        problem.components["C2"].allowed_rotations_deg = (0.0, 180.0)
        problem.components["C1"].allowed_rotations_deg = (0.0, 180.0)
        plan = RotationOptimizer(problem).optimize()
        # Neither part may rotate to 90: the EMD stays at the full PEMD.
        assert plan.final_emd_sum == pytest.approx(0.03, abs=1e-9)
