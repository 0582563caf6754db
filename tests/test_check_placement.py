"""Unit tests for the placement analyzer (PLC0xx rules)."""

from repro.check import check_placement
from repro.components import FilmCapacitorX2, small_bobbin_choke
from repro.geometry import Cuboid, Placement2D, Polygon2D, Rect, Vec2
from repro.placement import (
    Keepout3D,
    PlacedComponent,
    PlacementArea,
)
from repro.rules import (
    ClearanceRule,
    GroupCoherenceRule,
    MinDistanceRule,
    NetLengthRule,
)

from conftest import build_small_problem


def _codes(diagnostics):
    return sorted(d.code for d in diagnostics)


def _full_board_keepout(problem, board_index=0, name="blanket"):
    xmin, ymin, xmax, ymax = problem.boards[board_index].outline.bbox()
    return Keepout3D(name, Cuboid(Rect(xmin, ymin, xmax, ymax), 0.0, 0.05))


class TestCleanProblem:
    def test_small_problem_is_clean(self):
        assert check_placement(build_small_problem()) == []


class TestPreplacedOnBoard:
    def test_preplaced_outside_outline(self):
        problem = build_small_problem()
        comp = problem.components["C1"]
        comp.fixed = True
        comp.placement = Placement2D(Vec2(0.2, 0.2))  # board is 80x60 mm
        diags = check_placement(problem)
        assert "PLC001" in _codes(diags)
        assert any("C1" in d.message for d in diags)

    def test_preplaced_inside_is_fine(self):
        problem = build_small_problem()
        comp = problem.components["C1"]
        comp.fixed = True
        comp.placement = Placement2D(Vec2(0.04, 0.03))
        assert "PLC001" not in _codes(check_placement(problem))

    def test_missing_board_reference(self):
        problem = build_small_problem()
        comp = problem.components["C1"]
        comp.fixed = True
        comp.board = 7
        comp.placement = Placement2D(Vec2(0.04, 0.03))
        diags = [d for d in check_placement(problem) if d.code == "PLC001"]
        assert any("missing board" in d.message for d in diags)

    def test_unfixed_placed_part_not_flagged(self):
        # Only *fixed* parts are the user's responsibility; the placer
        # re-places everything else anyway.
        problem = build_small_problem()
        problem.components["C1"].placement = Placement2D(Vec2(0.2, 0.2))
        assert "PLC001" not in _codes(check_placement(problem))


class TestKeepouts:
    def test_blanket_keepout_blocks_board(self):
        problem = build_small_problem()
        problem.boards[0].keepouts.append(_full_board_keepout(problem))
        codes = _codes(check_placement(problem))
        assert "PLC002" in codes
        assert "PLC010" in codes  # no area left -> parts cannot fit either

    def test_elevated_keepout_does_not_block(self):
        # A z-offset keepout (e.g. under a heatsink overhang) leaves the
        # board surface placeable.
        problem = build_small_problem()
        keepout = _full_board_keepout(problem)
        elevated = Keepout3D(keepout.name, Cuboid(keepout.cuboid.rect, 0.01, 0.05))
        problem.boards[0].keepouts.append(elevated)
        codes = _codes(check_placement(problem))
        assert "PLC002" not in codes

    def test_keepout_off_board(self):
        problem = build_small_problem()
        problem.boards[0].keepouts.append(
            Keepout3D("lost", Cuboid(Rect(1.0, 1.0, 1.01, 1.01), 0.0, 0.01))
        )
        diags = [d for d in check_placement(problem) if d.code == "PLC003"]
        assert len(diags) == 1
        assert "lost" in diags[0].message

    def test_nested_keepout_is_redundant(self):
        problem = build_small_problem()
        problem.boards[0].keepouts.append(
            Keepout3D("outer", Cuboid(Rect(0.01, 0.01, 0.03, 0.03), 0.0, 0.02))
        )
        problem.boards[0].keepouts.append(
            Keepout3D("inner", Cuboid(Rect(0.015, 0.015, 0.025, 0.025), 0.0, 0.01))
        )
        diags = [d for d in check_placement(problem) if d.code == "PLC004"]
        assert len(diags) == 1
        assert "inner" in diags[0].message and "outer" in diags[0].message

    def test_overlapping_but_not_nested_is_fine(self):
        problem = build_small_problem()
        problem.boards[0].keepouts.append(
            Keepout3D("a", Cuboid(Rect(0.01, 0.01, 0.03, 0.03), 0.0, 0.02))
        )
        problem.boards[0].keepouts.append(
            Keepout3D("b", Cuboid(Rect(0.02, 0.02, 0.04, 0.04), 0.0, 0.02))
        )
        assert "PLC004" not in _codes(check_placement(problem))


class TestAreaConstraints:
    def test_unknown_area_name(self):
        problem = build_small_problem()
        problem.components["C1"].allowed_areas = ("filter_zone",)
        diags = [d for d in check_placement(problem) if d.code == "PLC005"]
        assert len(diags) == 1
        assert "filter_zone" in diags[0].message

    def test_unknown_preferred_area(self):
        problem = build_small_problem()
        problem.components["C1"].preferred_area = "ghost"
        assert "PLC005" in _codes(check_placement(problem))

    def test_preferred_area_outside_allowed_areas(self):
        problem = build_small_problem()
        problem.boards[0].areas.extend(
            [
                PlacementArea("left", Polygon2D.rectangle(0.0, 0.0, 0.04, 0.06)),
                PlacementArea("right", Polygon2D.rectangle(0.04, 0.0, 0.08, 0.06)),
            ]
        )
        comp = problem.components["C1"]
        comp.allowed_areas = ("left",)
        comp.preferred_area = "right"
        diags = [d for d in check_placement(problem) if d.code == "PLC005"]
        assert [d.obj for d in diags] == ["problem/component:C1"]
        assert "'right'" in diags[0].message
        comp.allowed_areas = ("left", "right")
        assert "PLC005" not in _codes(check_placement(problem))

    def test_component_too_big_for_area(self):
        problem = build_small_problem()
        problem.boards[0].areas.append(
            PlacementArea("tiny", Polygon2D.rectangle(0.0, 0.0, 0.002, 0.002))
        )
        problem.components["L1"].allowed_areas = ("tiny",)
        diags = [d for d in check_placement(problem) if d.code == "PLC006"]
        assert len(diags) == 1
        assert "L1" in diags[0].message

    def test_implicit_board_area_resolves(self):
        # A board without areas has the implicit area "board0", the one the
        # placer puts such a part in.
        problem = build_small_problem()
        problem.components["C1"].allowed_areas = ("board0",)
        codes = _codes(check_placement(problem))
        assert "PLC005" not in codes and "PLC006" not in codes

    def test_component_too_big_for_implicit_board_area(self):
        problem = build_small_problem()
        problem.boards[0].outline = Polygon2D.rectangle(0.0, 0.0, 0.005, 0.005)
        problem.components["L1"].allowed_areas = ("board0",)
        diags = [d for d in check_placement(problem) if d.code == "PLC006"]
        assert [d.obj for d in diags] == ["problem/component:L1"]

    def test_component_fits_after_rotation(self):
        # 90-degree rotation swaps the footprint sides; the area admits
        # the rotated pose even though the unrotated one does not fit.
        problem = build_small_problem()
        choke = small_bobbin_choke()
        wide = max(choke.footprint_w, choke.footprint_h)
        slim = min(choke.footprint_w, choke.footprint_h)
        problem.boards[0].areas.append(
            PlacementArea(
                "slot",
                Polygon2D.rectangle(0.0, 0.0, slim * 1.2, wide * 1.2),
            )
        )
        comp = problem.components["L1"]
        comp.allowed_areas = ("slot",)
        comp.allowed_rotations_deg = (0.0, 90.0)
        if choke.footprint_w == choke.footprint_h:
            return  # square part: rotation test is vacuous
        assert "PLC006" not in _codes(check_placement(problem))


class TestOrphanedRules:
    def test_min_distance_unknown_component(self):
        problem = build_small_problem()
        problem.rules.min_distance.append(MinDistanceRule("C1", "GHOST", pemd=0.02))
        diags = [d for d in check_placement(problem) if d.code == "PLC007"]
        assert any("GHOST" in d.message for d in diags)

    def test_clearance_unknown_component(self):
        problem = build_small_problem()
        problem.rules.clearance.append(ClearanceRule("GHOST", "C1", clearance=0.001))
        assert "PLC007" in _codes(check_placement(problem))

    def test_global_clearance_is_fine(self):
        problem = build_small_problem()
        problem.rules.clearance.append(ClearanceRule("", "", clearance=0.001))
        assert "PLC007" not in _codes(check_placement(problem))

    def test_group_unknown_member(self):
        problem = build_small_problem()
        problem.rules.groups.append(
            GroupCoherenceRule("input_filter", members=("C1", "GHOST"), max_spread=0.03)
        )
        diags = [d for d in check_placement(problem) if d.code == "PLC007"]
        assert any("input_filter" in d.message for d in diags)

    def test_net_length_unknown_net(self):
        problem = build_small_problem()
        problem.rules.net_lengths.append(NetLengthRule("NX", max_length=0.05))
        diags = [d for d in check_placement(problem) if d.code == "PLC007"]
        assert any("NX" in d.message for d in diags)


class TestUnsatisfiableDistances:
    def test_pemd_beyond_board_diagonal(self):
        problem = build_small_problem()
        problem.rules.min_distance.append(MinDistanceRule("C1", "C2", pemd=0.5))
        diags = [d for d in check_placement(problem) if d.code == "PLC008"]
        assert len(diags) == 1
        assert "500.0 mm" in diags[0].message

    def test_pemd_within_diagonal_is_fine(self):
        problem = build_small_problem()
        # 80x60 board: diagonal 100 mm.
        problem.rules.min_distance.append(MinDistanceRule("C1", "C2", pemd=0.09))
        assert "PLC008" not in _codes(check_placement(problem))


class TestMissingPemdRules:
    def test_uncovered_choke_pair(self):
        problem = build_small_problem(with_rules=True)
        problem.rules.min_distance = [
            r for r in problem.rules.min_distance if {r.ref_a, r.ref_b} != {"L1", "L2"}
        ]
        diags = [d for d in check_placement(problem) if d.code == "PLC009"]
        assert len(diags) == 1
        assert "L1-L2" in diags[0].message

    def test_capacitor_pairs_are_not_strong(self):
        # Without any rules, only the choke pair L1-L2 should be flagged;
        # capacitors and semiconductors have weak stray fields.
        problem = build_small_problem(with_rules=False)
        diags = [d for d in check_placement(problem) if d.code == "PLC009"]
        assert [d.obj for d in diags] == ["problem/pair:L1-L2"]

    def test_threshold_override_silences(self):
        problem = build_small_problem(with_rules=False)
        diags = [
            d
            for d in check_placement(problem, pemd_strength_threshold=1.0)
            if d.code == "PLC009"
        ]
        assert diags == []


class TestOverfilledBoard:
    def test_too_many_parts_for_tiny_board(self):
        problem = build_small_problem()
        problem.boards[0].outline = Polygon2D.rectangle(0.0, 0.0, 0.01, 0.01)
        diags = [d for d in check_placement(problem) if d.code == "PLC010"]
        assert len(diags) == 1

    def test_empty_board_is_not_overfilled(self):
        problem = build_small_problem()
        for comp in problem.components.values():
            comp.board = 0
        # Add a second, empty board: nothing assigned, nothing to report.
        from repro.placement import Board

        problem.boards.append(Board(1, Polygon2D.rectangle(0.0, 0.0, 0.001, 0.001)))
        assert "PLC010" not in _codes(check_placement(problem))


class TestComponentChecksViaProblem:
    def test_library_parts_are_physical(self):
        from repro.check import check_components

        assert check_components(build_small_problem()) == []

    def test_dedup_by_model_identity(self):
        from repro.check import check_components

        class ActiveCap(FilmCapacitorX2):
            @property
            def esr(self):
                return -1.0

        problem = build_small_problem()
        shared = ActiveCap()
        problem.add_component(PlacedComponent("CX", shared))
        problem.add_component(PlacedComponent("CY", shared))
        diags = check_components(problem)
        cmp1 = [d for d in diags if d.code == "CMP001"]
        assert len(cmp1) == 1  # one model, one finding
        assert "CX,CY" in cmp1[0].obj
