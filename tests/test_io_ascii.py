"""Unit tests for the ASCII-file interface."""

import pytest

from repro.geometry import Placement2D, Vec2
from repro.io import AsciiFormatError, read_problem, write_problem
from repro.rules import ClearanceRule, GroupCoherenceRule, NetLengthRule

from conftest import build_small_problem


SAMPLE = """EMIPLACE 1
TITLE sample board
BOARD 0 GROUND 1
  OUTLINE 0,0 70,0 70,50 0,50
  AREA main 5,5 65,5 65,45 5,45
  KEEPOUT hs1 10,10 30,30 Z 0 15
END
COMP CX1 TYPE FilmCapacitorX2 PN CX1-X2 SIZE 18x8x15 GROUP flt
COMP LF1 TYPE BobbinChoke PN LF1-CH SIZE 12x10x12 GROUP flt
COMP Q1 TYPE PowerMosfet PN Q1-DPAK SIZE 10x9x2.3 FIXED AT 35 25 ROT 90
COMP CX2 TYPE FilmCapacitorX2 PN CX2-X2 SIZE 18x8x15 ANGLES 0,180
NET VIN CX1.1 LF1.1
NET VBUS LF1.2 CX2.1 Q1.D
RULE MINDIST CX1 CX2 25 K 0.01
RULE CLEAR * * 0.5
RULE GROUP flt SPREAD 40 MEMBERS CX1,LF1
RULE NETLEN VIN 120
"""


class TestReader:
    def test_full_sample(self):
        problem = read_problem(SAMPLE)
        assert len(problem.boards) == 1
        assert len(problem.components) == 4
        assert len(problem.nets) == 2
        assert problem.rules.total_rules() == 4

    def test_units_converted_to_metres(self):
        problem = read_problem(SAMPLE)
        xmin, ymin, xmax, ymax = problem.board(0).outline.bbox()
        assert xmax == pytest.approx(0.07)
        rule = problem.rules.min_distance[0]
        assert rule.pemd == pytest.approx(0.025)
        assert rule.k_threshold == pytest.approx(0.01)

    def test_component_attributes(self):
        problem = read_problem(SAMPLE)
        q1 = problem.components["Q1"]
        assert q1.fixed
        assert q1.is_placed
        assert q1.placement.position.x == pytest.approx(0.035)
        assert q1.placement.rotation_deg == pytest.approx(90.0)
        cx2 = problem.components["CX2"]
        assert cx2.allowed_rotations_deg == (0.0, 180.0)
        assert problem.components["CX1"].group == "flt"

    def test_component_size_applied(self):
        problem = read_problem(SAMPLE)
        lf1 = problem.components["LF1"].component
        assert lf1.footprint_w == pytest.approx(0.012)
        assert lf1.part_number == "LF1-CH"

    def test_keepout_with_z(self):
        problem = read_problem(SAMPLE)
        keepout = problem.board(0).keepouts[0]
        assert keepout.cuboid.zmin == 0.0
        assert keepout.cuboid.zmax == pytest.approx(0.015)

    def test_ground_token_ignored(self):
        # GROUND 0|1 on a BOARD line still parses, and both values read to
        # the same problem: no simulation reads a board's ground flag.
        plane = read_problem(SAMPLE)
        no_plane = read_problem(SAMPLE.replace("BOARD 0 GROUND 1", "BOARD 0 GROUND 0"))
        assert no_plane.boards == plane.boards
        assert write_problem(no_plane) == write_problem(plane)

    def test_missing_header(self):
        with pytest.raises(AsciiFormatError, match="EMIPLACE"):
            read_problem("BOARD 0\nEND\n")

    def test_unknown_type_rejected(self):
        bad = SAMPLE.replace("TYPE FilmCapacitorX2", "TYPE FluxCapacitor", 1)
        with pytest.raises(AsciiFormatError, match="TYPE"):
            read_problem(bad)

    def test_closed_outline_reads_as_open(self):
        closed = read_problem(
            SAMPLE.replace("OUTLINE 0,0 70,0 70,50 0,50", "OUTLINE 0,0 70,0 70,50 0,50 0,0")
        )
        board = read_problem(SAMPLE).boards[0]
        assert closed.boards[0].outline == board.outline
        assert not closed.boards[0].outline.contains_point(Vec2(0.1, 0.1))

    def test_board_without_outline_rejected(self):
        with pytest.raises(AsciiFormatError, match="OUTLINE"):
            read_problem("EMIPLACE 1\nBOARD 0\nEND\n")

    def test_error_cites_line_number(self):
        bad = SAMPLE + "RULE WHATEVER X Y 3\n"
        with pytest.raises(AsciiFormatError, match="unknown rule"):
            read_problem(bad)


class TestRoundtrip:
    def test_write_read_identity(self):
        problem = build_small_problem()
        problem.define_group("g", ["C1", "L1"])
        problem.rules.clearance.append(ClearanceRule(clearance=1e-3))
        problem.rules.groups.append(
            GroupCoherenceRule(group="g", members=("C1", "L1"), max_spread=0.05)
        )
        problem.rules.net_lengths.append(NetLengthRule(net="N1", max_length=0.12))
        problem.components["Q1"].placement = Placement2D.at(0.04, 0.03, 90)
        problem.components["Q1"].fixed = True

        text = write_problem(problem, title="roundtrip")
        again = read_problem(text)

        assert set(again.components) == set(problem.components)
        assert len(again.nets) == len(problem.nets)
        assert again.rules.total_rules() == problem.rules.total_rules()
        q1 = again.components["Q1"]
        assert q1.fixed and q1.is_placed
        assert q1.placement.position.is_close(
            problem.components["Q1"].placement.position, tol=1e-7
        )
        assert again.components["C1"].group == "g"

    def test_roundtrip_preserves_residual(self):
        from repro.rules import MinDistanceRule

        problem = build_small_problem()
        problem.rules.min_distance.append(
            MinDistanceRule("C3", "L2", pemd=0.02, k_threshold=0.01, residual=0.85)
        )
        again = read_problem(write_problem(problem))
        twin = again.rules.min_distance_for("C3", "L2")
        assert twin is not None
        assert twin.residual == pytest.approx(0.85)
        assert twin.k_threshold == pytest.approx(0.01)

    def test_unknown_mindist_keyword_rejected(self):
        bad = SAMPLE.replace(
            "RULE MINDIST CX1 CX2 25 K 0.01", "RULE MINDIST CX1 CX2 25 Q 0.01"
        )
        with pytest.raises(AsciiFormatError):
            read_problem(bad)

    def test_roundtrip_preserves_pemd(self):
        problem = build_small_problem()
        again = read_problem(write_problem(problem))
        for rule in problem.rules.min_distance:
            twin = again.rules.min_distance_for(rule.ref_a, rule.ref_b)
            assert twin is not None
            assert twin.pemd == pytest.approx(rule.pemd, rel=1e-4)

    def test_roundtrip_component_geometry(self):
        problem = build_small_problem()
        again = read_problem(write_problem(problem))
        for ref, comp in problem.components.items():
            twin = again.components[ref].component
            assert twin.footprint_w == pytest.approx(comp.component.footprint_w, rel=1e-4)
            assert twin.body_height == pytest.approx(comp.component.body_height, rel=1e-4)

    def test_demo_board_roundtrips(self):
        from repro.converters import build_demo_board

        board = build_demo_board()
        text = write_problem(board)
        assert "GROUND" not in text
        again = read_problem(text)
        assert write_problem(again) == text
        assert set(again.components) == set(board.components)

    def test_written_problem_is_placeable(self):
        from repro.placement import AutoPlacer

        problem = read_problem(write_problem(build_small_problem()))
        report = AutoPlacer(problem).run()
        assert report.violations_after == 0
