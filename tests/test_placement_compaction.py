"""Unit tests for automatic layout compaction."""

import pytest

from repro.placement import AutoPlacer, DesignRuleChecker, compact_layout, placement_area

from conftest import build_small_problem


def placed_problem():
    problem = build_small_problem()
    AutoPlacer(problem).run()
    return problem


class TestCompaction:
    def test_area_never_grows(self):
        problem = placed_problem()
        result = compact_layout(problem)
        assert result.area_after <= result.area_before + 1e-12
        assert result.reduction >= 0.0

    def test_legality_preserved(self):
        problem = placed_problem()
        compact_layout(problem)
        assert DesignRuleChecker(problem).is_legal()

    def test_fixed_components_untouched(self):
        problem = placed_problem()
        anchor = problem.components["Q1"]
        anchor.fixed = True
        before = anchor.placement
        compact_layout(problem)
        assert anchor.placement == before

    def test_terminates_at_fixed_point(self):
        problem = placed_problem()
        first = compact_layout(problem, max_passes=30)
        second = compact_layout(problem, max_passes=30)
        # After converging, a second run performs (almost) no moves.
        assert second.moves <= max(2, first.moves // 5)

    def test_result_area_matches_problem(self):
        problem = placed_problem()
        result = compact_layout(problem)
        assert result.area_after == pytest.approx(placement_area(problem))

    def test_invalid_step(self):
        with pytest.raises(ValueError):
            compact_layout(placed_problem(), step=0.0)

    def test_pass_bound_respected(self):
        problem = placed_problem()
        result = compact_layout(problem, max_passes=2)
        assert result.passes <= 2

    def test_an_unrelated_group_violation_does_not_block_moves(self):
        """A violated group rule is reported only for moves of its members,
        so the other parts of the demo board compact as without it."""
        from repro.converters import build_demo_board
        from repro.rules import GroupCoherenceRule

        def placed_demo_board():
            problem = build_demo_board()
            AutoPlacer(problem).run()
            return problem

        free = compact_layout(placed_demo_board(), max_passes=3)
        problem = placed_demo_board()
        spread = problem.components["Q1"].center().distance_to(problem.components["D1"].center())
        problem.rules.groups.append(
            GroupCoherenceRule(group="switch", members=("Q1", "D1"), max_spread=spread / 2.0)
        )
        [violation] = DesignRuleChecker(problem).check_all()
        assert violation.kind == "group"
        assert compact_layout(problem, max_passes=3).moves == free.moves > 0
