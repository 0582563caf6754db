"""Unit tests for the interactive placement session (online DRC)."""

import pytest

from repro.components import ChipResistor
from repro.geometry import Cuboid, Placement2D, Polygon2D, Rect, Vec2
from repro.placement import (
    AutoPlacer,
    Board,
    InteractiveSession,
    Keepout3D,
    PlacedComponent,
    PlacementProblem,
)

from conftest import build_small_problem


def session_with_layout() -> InteractiveSession:
    problem = build_small_problem()
    AutoPlacer(problem).run()
    return InteractiveSession(problem)


class TestSelection:
    def test_select_unknown_raises(self):
        session = session_with_layout()
        with pytest.raises(KeyError):
            session.select("Z9")

    def test_select_fixed_raises(self):
        session = session_with_layout()
        session.problem.components["C1"].fixed = True
        with pytest.raises(ValueError):
            session.select("C1")

    def test_operation_without_selection_raises(self):
        session = session_with_layout()
        with pytest.raises(RuntimeError):
            session.move_by(Vec2(1e-3, 0.0))


class TestMoveAndRotate:
    def test_legal_move_feedback(self):
        session = session_with_layout()
        session.select("D1")
        result = session.move_by(Vec2(1e-3, 0.0))
        assert result.refdes == "D1"
        assert isinstance(result.area, float)
        assert result.markers  # rules exist in the fixture

    def test_violating_move_reports_red(self):
        session = session_with_layout()
        c2 = session.problem.components["C2"]
        c1 = session.problem.components["C1"]
        session.select("C2")
        # Teleport C2 onto C1: overlap + min-distance violations.
        result = session.move_to(c1.center() + Vec2(1e-3, 0.0))
        assert not result.legal
        kinds = {v.kind for v in result.violations}
        assert "overlap" in kinds

    def test_rotate_to_and_by(self):
        session = session_with_layout()
        session.select("C3")
        session.rotate_to(0.0)
        result = session.rotate_by(90.0)
        comp = session.problem.components["C3"]
        assert comp.placement.rotation_deg == pytest.approx(90.0)
        assert result.refdes == "C3"

    def test_move_unplaced_requires_move_to(self):
        session = session_with_layout()
        session.problem.components["D1"].placement = None
        session.select("D1")
        with pytest.raises(RuntimeError):
            session.move_by(Vec2(1e-3, 0))
        result = session.move_to(Vec2(0.01, 0.01))
        assert session.problem.components["D1"].is_placed
        assert result.refdes == "D1"


class TestUndo:
    def test_undo_restores_placement(self):
        session = session_with_layout()
        session.select("C2")
        before = session.problem.components["C2"].placement
        session.move_by(Vec2(5e-3, 0.0))
        assert session.undo()
        assert session.problem.components["C2"].placement == before

    def test_undo_empty_stack(self):
        session = session_with_layout()
        assert not session.undo()

    def test_undo_across_operations(self):
        session = session_with_layout()
        session.select("C2")
        p0 = session.problem.components["C2"].placement
        session.move_by(Vec2(1e-3, 0.0))
        session.rotate_by(90.0)
        session.undo()
        session.undo()
        assert session.problem.components["C2"].placement == p0


class TestAdviser:
    def test_compact_step_shrinks_or_stops(self):
        session = session_with_layout()
        area0 = session.area()
        moved_any = False
        for ref in list(session.problem.components):
            if session.problem.components[ref].fixed:
                continue
            for _ in range(10):
                result = session.compact_step(ref, step=0.5e-3)
                if result is None:
                    break
                moved_any = True
        if moved_any:
            assert session.area() <= area0 + 1e-12
        assert session.board_is_legal()

    def test_board_is_legal_after_auto_place(self):
        session = session_with_layout()
        assert session.board_is_legal()


class TestSuggestPosition:
    def test_suggestion_is_legal(self):
        session = session_with_layout()
        suggestion = session.suggest_position("C2")
        assert suggestion is not None
        session.select("C2")
        result = session.move_to(suggestion)
        assert result.legal

    def test_current_placement_restored(self):
        session = session_with_layout()
        before = session.problem.components["C2"].placement
        session.suggest_position("C2")
        assert session.problem.components["C2"].placement == before

    def test_unknown_refdes(self):
        session = session_with_layout()
        with pytest.raises(KeyError):
            session.suggest_position("Z9")

    def test_suggestion_tests_keepouts_at_kept_z_offset(self):
        # A 0.7 mm resistor lifted 4 mm keeps that offset when moved, so a
        # keepout from 4 to 30 mm blocks it although it would clear a body
        # standing on the board.
        board = Board(0, Polygon2D.rectangle(0.0, 0.0, 0.04, 0.03))
        board.keepouts = [Keepout3D("K", Cuboid(Rect(0.01, 0.0, 0.04, 0.03), 4e-3, 30e-3))]
        problem = PlacementProblem([board])
        r1 = PlacedComponent("R1", ChipResistor(part_number="R"))
        r1.placement = Placement2D(Vec2(0.005, 0.015), 0.0, z_offset=4e-3)
        problem.add_component(r1)
        session = InteractiveSession(problem)
        suggestion = session.suggest_position("R1")
        assert suggestion is not None
        session.select("R1")
        assert session.move_to(suggestion).legal

    def test_unplaced_component_gets_suggestion(self):
        session = session_with_layout()
        session.problem.components["D1"].placement = None
        suggestion = session.suggest_position("D1")
        assert suggestion is not None
