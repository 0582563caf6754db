"""Unit tests for the design-rule checker."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.components import FilmCapacitorX2, PowerMosfet, small_bobbin_choke
from repro.geometry import Cuboid, Placement2D, Polygon2D, Rect, Vec2
from repro.io import read_problem
from repro.placement import (
    Board,
    DesignRuleChecker,
    InteractiveSession,
    Keepout3D,
    PlacedComponent,
    PlacementProblem,
    Violation,
)
from repro.rules import GroupCoherenceRule, NetLengthRule

from conftest import build_small_problem


def spread_layout(problem):
    positions = {
        "C1": (0.012, 0.012),
        "C2": (0.068, 0.012),
        "C3": (0.068, 0.048),
        "L1": (0.012, 0.048),
        "L2": (0.040, 0.048),
        "Q1": (0.040, 0.012),
        "D1": (0.040, 0.030),
    }
    for ref, (x, y) in positions.items():
        problem.components[ref].placement = Placement2D.at(x, y)


class TestBodySpacing:
    def test_overlap_detected(self):
        problem = build_small_problem()
        problem.components["C1"].placement = Placement2D.at(0.02, 0.02)
        problem.components["C2"].placement = Placement2D.at(0.025, 0.02)
        violations = DesignRuleChecker(problem).check_body_spacing()
        assert any(v.kind == "overlap" for v in violations)

    def test_clearance_detected(self):
        problem = build_small_problem()
        problem.components["C1"].placement = Placement2D.at(0.02, 0.02)
        # 18 mm wide: edges at 29 and 29.3 -> gap 0.3 mm < 0.5 mm clearance.
        problem.components["C2"].placement = Placement2D.at(0.0383, 0.02)
        violations = DesignRuleChecker(problem).check_body_spacing()
        kinds = {v.kind for v in violations}
        assert "clearance" in kinds and "overlap" not in kinds

    def test_spaced_parts_clean(self):
        problem = build_small_problem()
        spread_layout(problem)
        assert DesignRuleChecker(problem).check_body_spacing() == []

    def test_only_filter(self):
        problem = build_small_problem()
        problem.components["C1"].placement = Placement2D.at(0.02, 0.02)
        problem.components["C2"].placement = Placement2D.at(0.025, 0.02)
        problem.components["C3"].placement = Placement2D.at(0.025, 0.04)
        violations = DesignRuleChecker(problem).check_body_spacing(only="C3")
        assert all("C3" in v.refs for v in violations)


class TestMinDistance:
    def test_violation_reports_emd(self):
        problem = build_small_problem()
        spread_layout(problem)
        problem.components["C2"].placement = Placement2D.at(0.018, 0.012)
        violations = DesignRuleChecker(problem).check_min_distances()
        md = [v for v in violations if set(v.refs) == {"C1", "C2"}]
        assert len(md) == 1
        assert md[0].required > md[0].actual
        assert md[0].deficit > 0.0

    def test_rotation_can_cure_violation(self):
        problem = build_small_problem()
        spread_layout(problem)
        problem.components["C2"].placement = Placement2D.at(0.030, 0.012)
        checker = DesignRuleChecker(problem)
        assert checker.check_min_distances(only="C2")
        problem.components["C2"].placement = Placement2D.at(0.030, 0.012, 90)
        assert not checker.check_min_distances(only="C2")

    def test_unplaced_pairs_skipped(self):
        problem = build_small_problem()
        problem.components["C1"].placement = Placement2D.at(0.02, 0.02)
        assert DesignRuleChecker(problem).check_min_distances() == []

    def test_markers_red_green(self):
        problem = build_small_problem()
        spread_layout(problem)
        problem.components["C2"].placement = Placement2D.at(0.016, 0.012)
        markers = DesignRuleChecker(problem).rule_markers()
        assert len(markers) == len(problem.rules.min_distance)
        bad = [m for m in markers if not m.satisfied]
        assert bad and all(m.color == "red" for m in bad)
        good = [m for m in markers if m.satisfied]
        assert good and all(m.color == "green" for m in good)


class TestKeepinKeepout:
    def test_outside_board_detected(self):
        problem = build_small_problem()
        spread_layout(problem)
        problem.components["C1"].placement = Placement2D.at(0.075, 0.012)
        violations = DesignRuleChecker(problem).check_keepin()
        assert any(v.kind == "keepin" and v.refs == ("C1",) for v in violations)

    def test_keepout_z_offset(self):
        board = Board(
            0,
            Polygon2D.rectangle(0, 0, 0.08, 0.06),
            keepouts=[
                Keepout3D("hs", Cuboid(Rect(0.0, 0.0, 0.04, 0.06), 20e-3, 40e-3))
            ],
        )
        problem = PlacementProblem([board])
        # X2 cap is 15 mm tall: passes under the 20 mm overhang.
        problem.add_component(PlacedComponent("C1", FilmCapacitorX2()))
        problem.components["C1"].placement = Placement2D.at(0.02, 0.03)
        assert DesignRuleChecker(problem).check_keepouts() == []
        # Raise the part on a 10 mm standoff: now it intrudes.
        problem.components["C1"].placement = Placement2D(
            problem.components["C1"].placement.position, 0.0, z_offset=10e-3
        )
        assert DesignRuleChecker(problem).check_keepouts()

    def test_allowed_area_restriction(self):
        from repro.placement import PlacementArea

        board = Board(0, Polygon2D.rectangle(0, 0, 0.08, 0.06))
        board.areas.append(
            PlacementArea("left", Polygon2D.rectangle(0, 0, 0.04, 0.06))
        )
        board.areas.append(
            PlacementArea("right", Polygon2D.rectangle(0.04, 0, 0.08, 0.06))
        )
        problem = PlacementProblem([board])
        problem.add_component(
            PlacedComponent("C1", FilmCapacitorX2(), allowed_areas=("left",))
        )
        problem.components["C1"].placement = Placement2D.at(0.06, 0.03)
        assert DesignRuleChecker(problem).check_keepin()
        problem.components["C1"].placement = Placement2D.at(0.02, 0.03)
        assert not DesignRuleChecker(problem).check_keepin()


class TestGroupsAndNets:
    def test_group_spread_violation(self):
        problem = build_small_problem()
        spread_layout(problem)
        problem.define_group("g", ["C1", "C3"])
        problem.rules.groups.append(
            GroupCoherenceRule(group="g", members=("C1", "C3"), max_spread=0.03)
        )
        violations = DesignRuleChecker(problem).check_groups()
        assert any(v.kind == "group" for v in violations)

    def test_group_rule_without_tagged_parts(self):
        """A rule whose group no part carries is measured over its members,
        in the full check and in the online DRC of a member; moving a part
        that is not a member reports no group violation."""
        problem = build_small_problem()
        spread_layout(problem)
        problem.rules.groups.append(
            GroupCoherenceRule(group="g", members=("C1", "C3"), max_spread=0.03)
        )
        c1, c3 = problem.components["C1"].center(), problem.components["C3"].center()
        [violation] = [v for v in DesignRuleChecker(problem).check_all() if v.kind == "group"]
        assert violation.refs == ("C1", "C3")
        assert violation.actual == c1.distance_to(c3)
        assert violation.location.distance_to((c1 + c3) / 2.0) < 1e-15
        session = InteractiveSession(problem)
        session.select("C2")
        moved = session.move_to(Vec2(0.05, 0.03))
        assert [v for v in moved.violations if v.kind == "group"] == []
        session.select("C1")
        moved = session.move_by(Vec2(0.0, 0.001))
        assert [v.refs for v in moved.violations if v.kind == "group"] == [("C1", "C3")]

    def test_group_rule_measures_its_own_members(self):
        """The rule's members, not the problem group of the same name."""
        problem = build_small_problem()
        spread_layout(problem)
        problem.define_group("g", ["C1", "C2"])
        problem.rules.groups.append(
            GroupCoherenceRule(group="g", members=("C1", "C3"), max_spread=0.03)
        )
        c1, c3 = problem.components["C1"].center(), problem.components["C3"].center()
        [violation] = DesignRuleChecker(problem).check_groups()
        assert violation.refs == ("C1", "C3")
        assert violation.actual == c1.distance_to(c3)

    def test_ascii_group_rule_without_group_attributes(self):
        problem = read_problem(
            "EMIPLACE 1\n"
            "BOARD 0\n  OUTLINE 0,0 70,0 70,50 0,50\nEND\n"
            "COMP CX1 TYPE FilmCapacitorX2 PN CX1-X2 SIZE 18x8x15 FIXED AT 15 15 ROT 0\n"
            "COMP LF1 TYPE BobbinChoke PN LF1-CH SIZE 12x10x12 FIXED AT 55 35 ROT 0\n"
            "RULE GROUP flt SPREAD 20 MEMBERS CX1,LF1\n"
        )
        assert problem.groups == []
        [violation] = DesignRuleChecker(problem).check_all()
        assert (violation.kind, violation.refs) == ("group", ("CX1", "LF1"))
        assert violation.actual == problem.components["CX1"].center().distance_to(
            problem.components["LF1"].center()
        )

    def test_net_length_violation(self):
        problem = build_small_problem()
        spread_layout(problem)
        problem.rules.net_lengths.append(NetLengthRule(net="N1", max_length=1e-3))
        violations = DesignRuleChecker(problem).check_net_lengths()
        assert any(v.kind == "net_length" for v in violations)

    def test_check_all_aggregates(self):
        problem = build_small_problem()
        spread_layout(problem)
        checker = DesignRuleChecker(problem)
        assert len(checker.check_all()) == (
            len(checker.check_body_spacing())
            + len(checker.check_min_distances())
            + len(checker.check_keepin())
            + len(checker.check_keepouts())
            + len(checker.check_groups())
            + len(checker.check_net_lengths())
        )

    def test_is_legal(self):
        problem = build_small_problem()
        spread_layout(problem)
        checker = DesignRuleChecker(problem)
        # The spread layout satisfies spacing and keepin; min distances may
        # or may not hold — consistency check only.
        assert checker.is_legal() == (not checker.check_all())


class TestOnlineDrcMatchesFullCheck:
    """``check_component(ref)`` walks only the pairs and rules touching
    ``ref``; after any move it must report exactly what ``check_all()``
    reports about ``ref``, for every violation kind and in the same order.

    The moves touch every part but ``SH1`` and ``U1``, the members of one
    of the two group rules."""

    @staticmethod
    def board():
        from repro.converters import build_demo_board
        from repro.geometry import Vec2
        from repro.placement import PlacementArea

        problem = build_demo_board()
        board = problem.boards[0]
        l_shape = Polygon2D(
            [
                Vec2(0, 0),
                Vec2(0.1, 0),
                Vec2(0.1, 0.04),
                Vec2(0.05, 0.04),
                Vec2(0.05, 0.08),
                Vec2(0, 0.08),
            ]
        )
        board.areas = [
            PlacementArea("main", l_shape),
            PlacementArea("side", Polygon2D.rectangle(0.055, 0.045, 0.1, 0.08)),
        ]
        board.keepouts = [
            Keepout3D("K0", Cuboid(Rect(0.02, 0.02, 0.035, 0.03), 0.0, 0.03)),
            Keepout3D("K4", Cuboid(Rect(0.06, 0.05, 0.08, 0.065), 4e-3, 0.03)),
        ]
        refs = sorted(problem.components)
        for i, ref in enumerate(refs):
            comp = problem.components[ref]
            comp.placement = Placement2D.at(0.008 + 0.017 * (i % 6), 0.008 + 0.015 * (i // 6), 0)
            if i % 5 == 0:
                comp.allowed_areas = ("side",)
        problem.rules.net_lengths.append(NetLengthRule(net="NQ", max_length=0.03))
        problem.rules.groups += [
            GroupCoherenceRule(group="power", members=("Q1", "D1", "L2", "CX1"), max_spread=0.04),
            GroupCoherenceRule(group="sense", members=("SH1", "U1"), max_spread=0.01),
        ]
        return problem

    def test_the_board_violates_every_added_rule(self):
        kinds = [(v.kind, v.refs) for v in DesignRuleChecker(self.board()).check_all()]
        assert ("net_length", ("D1", "L4", "Q2")) in kinds
        assert ("group", ("Q1", "D1", "L2", "CX1")) in kinds
        assert ("group", ("SH1", "U1")) in kinds

    @settings(max_examples=40, deadline=None)
    @given(
        st.lists(
            st.tuples(
                st.integers(min_value=0, max_value=26),
                st.floats(min_value=-0.005, max_value=0.105),
                st.floats(min_value=-0.005, max_value=0.085),
                st.sampled_from((0.0, 90.0, 180.0, 270.0)),
            ),
            min_size=1,
            max_size=6,
        )
    )
    def test_random_moves(self, moves):
        problem = self.board()
        refs = sorted(problem.components)
        checker = DesignRuleChecker(problem)
        for index, x, y, rot in moves:
            ref = refs[index]
            problem.components[ref].placement = Placement2D.at(x, y, rot)
            full = [v for v in checker.check_all() if ref in v.refs]
            assert checker.check_component(ref) == full


def former_keepin(problem, only=None):
    """The per-part keepin loop ``check_keepin`` replaced: one
    ``contains_rect`` per allowed area of each part."""
    out = []
    for comp in problem.placed():
        if only is not None and comp.refdes != only:
            continue
        r = comp.footprint_aabb()
        areas = problem.allowed_areas(comp)
        if not any(a.polygon.contains_rect(r.xmin, r.ymin, r.xmax, r.ymax) for a in areas):
            out.append(
                Violation(
                    "keepin",
                    (comp.refdes,),
                    0.0,
                    0.0,
                    comp.center(),
                    f"{comp.refdes} outside its allowed placement area(s)",
                )
            )
    return out


class TestKeepinMatchesPerPartLoop:
    """The batched keepin check (one ``contains_rects`` per area polygon)
    equals the former per-part loop on a concave outline without areas,
    a board with two overlapping areas and per-part restrictions (one
    naming no area), for the full check and for ``only=``."""

    L_SHAPE = Polygon2D(
        [
            Vec2(0, 0),
            Vec2(0.1, 0),
            Vec2(0.1, 0.04),
            Vec2(0.05, 0.04),
            Vec2(0.05, 0.08),
            Vec2(0, 0.08),
        ]
    )
    PARTS = (
        ("C1", FilmCapacitorX2, 0, ()),
        ("C2", FilmCapacitorX2, 0, ()),
        ("Q1", PowerMosfet, 0, ()),
        ("L1", small_bobbin_choke, 1, ()),
        ("C3", FilmCapacitorX2, 1, ("west",)),
        ("Q2", PowerMosfet, 1, ("east",)),
        ("L2", small_bobbin_choke, 1, ("west", "east")),
        ("D1", PowerMosfet, 1, ("nowhere",)),
    )

    @classmethod
    def problem(cls):
        from repro.placement import PlacementArea

        boards = [
            Board(0, cls.L_SHAPE),
            Board(
                1,
                Polygon2D.rectangle(0.0, 0.0, 0.1, 0.08),
                areas=[
                    PlacementArea("west", cls.L_SHAPE, 1),
                    PlacementArea("east", Polygon2D.rectangle(0.045, 0.03, 0.1, 0.08), 1),
                ],
            ),
        ]
        problem = PlacementProblem(boards)
        for ref, make, board, allowed in cls.PARTS:
            problem.add_component(PlacedComponent(ref, make(), board=board, allowed_areas=allowed))
        return problem

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(
        st.lists(
            st.one_of(
                st.none(),
                st.tuples(
                    st.floats(min_value=-0.005, max_value=0.105),
                    st.floats(min_value=-0.005, max_value=0.085),
                    st.sampled_from((0.0, 30.0, 90.0, 180.0)),
                ),
            ),
            min_size=len(PARTS),
            max_size=len(PARTS),
        )
    )
    def test_random_layouts(self, poses):
        problem = self.problem()
        for (ref, *_), pose in zip(self.PARTS, poses):
            problem.components[ref].placement = None if pose is None else Placement2D.at(*pose)
        checker = DesignRuleChecker(problem)
        assert checker.check_keepin() == former_keepin(problem)
        for ref, *_ in self.PARTS:
            assert checker.check_keepin(only=ref) == former_keepin(problem, only=ref)

    def test_restricted_part_without_a_matching_area_is_always_flagged(self):
        problem = self.problem()
        problem.components["D1"].placement = Placement2D.at(0.07, 0.06)
        assert [v.refs for v in DesignRuleChecker(problem).check_keepin()] == [("D1",)]
