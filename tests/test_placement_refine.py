"""Unit tests for rip-up-and-replace wirelength refinement."""

import pytest

from repro.components import ChipResistor
from repro.geometry import Placement2D, Polygon2D, Vec2
from repro.placement import (
    AutoPlacer,
    Board,
    DesignRuleChecker,
    PlacedComponent,
    PlacementProblem,
    refine_wirelength,
    total_wirelength,
)

from conftest import build_small_problem


def placed_problem():
    problem = build_small_problem()
    AutoPlacer(problem).run()
    return problem


class TestRefinement:
    def test_never_worse(self):
        problem = placed_problem()
        result = refine_wirelength(problem)
        assert result.wirelength_after <= result.wirelength_before + 1e-12
        assert result.improvement >= 0.0

    def test_typically_improves_greedy_result(self):
        problem = placed_problem()
        result = refine_wirelength(problem)
        # The greedy sequential pass leaves slack on this fixture.
        assert result.improved_components >= 1
        assert result.wirelength_after < result.wirelength_before

    def test_legality_preserved(self):
        problem = placed_problem()
        refine_wirelength(problem)
        assert DesignRuleChecker(problem).is_legal()

    def test_result_matches_problem_state(self):
        problem = placed_problem()
        result = refine_wirelength(problem)
        assert result.wirelength_after == pytest.approx(total_wirelength(problem))

    def test_fixed_components_untouched(self):
        problem = placed_problem()
        anchor = problem.components["C1"]
        anchor.fixed = True
        before = anchor.placement
        refine_wirelength(problem)
        assert anchor.placement == before

    def test_converges_to_fixed_point(self):
        problem = placed_problem()
        refine_wirelength(problem, max_passes=5)
        second = refine_wirelength(problem, max_passes=5)
        assert second.improved_components == 0
        assert second.passes == 1

    def test_pass_bound(self):
        problem = placed_problem()
        result = refine_wirelength(problem, max_passes=1)
        assert result.passes == 1

    def test_moved_part_keeps_z_offset_and_side(self):
        problem = PlacementProblem([Board(0, Polygon2D.rectangle(0.0, 0.0, 0.04, 0.03))])
        anchor = PlacedComponent("R1", ChipResistor(part_number="R"), fixed=True)
        anchor.placement = Placement2D(Vec2(0.005, 0.015), 0.0)
        mover = PlacedComponent("R2", ChipResistor(part_number="R"))
        mover.placement = Placement2D(Vec2(0.035, 0.015), 0.0, z_offset=2e-3, side=-1)
        problem.add_component(anchor)
        problem.add_component(mover)
        problem.add_net("N", [("R1", "1"), ("R2", "1")])
        assert refine_wirelength(problem).improved_components == 1
        assert mover.placement.position != Vec2(0.035, 0.015)
        assert (mover.placement.z_offset, mover.placement.side) == (2e-3, -1)

    def test_net_length_bounds_hold_on_the_demo_board(self):
        """The online DRC guarding each move checks net lengths, so a bound
        at every net's current length stays met."""
        from repro.converters import build_demo_board
        from repro.placement import net_hpwl
        from repro.rules import NetLengthRule

        problem = build_demo_board()
        AutoPlacer(problem).run()
        problem.rules.net_lengths = [
            NetLengthRule(net=net.name, max_length=net_hpwl(problem, net)) for net in problem.nets
        ]
        assert DesignRuleChecker(problem).is_legal()
        refine_wirelength(problem)
        assert [v for v in DesignRuleChecker(problem).check_all() if v.kind == "net_length"] == []
