"""One definition of each placement-legality fact, shared by placer and DRC.

``PlacementProblem`` owns the allowed areas of a part, the clearance of a
pair, whether a keepout blocks a body and the EMD/distance of a rule.  A
position the placer accepts must therefore never be a DRC violation.
"""

import importlib.util
import random
from pathlib import Path

import pytest

from repro.components import FilmCapacitorX2
from repro.geometry import Cuboid, Placement2D, Polygon2D, Rect
from repro.io import read_problem
from repro.placement import (
    AutoPlacer,
    Board,
    DesignRuleChecker,
    Keepout3D,
    PlacedComponent,
    PlacementArea,
    PlacementError,
    PlacementProblem,
)
from repro.rules import ClearanceRule, MinDistanceRule, RuleSet

ROOT = Path(__file__).resolve().parents[1]
BOARDS = ROOT / "examples" / "boards"

_spec = importlib.util.spec_from_file_location(
    "make_placement_reference", ROOT / "tests" / "data" / "make_placement_reference.py"
)
assert _spec is not None and _spec.loader is not None
harness = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(harness)


def _two_area_problem() -> PlacementProblem:
    board = Board(
        0,
        Polygon2D.rectangle(0, 0, 0.08, 0.06),
        areas=[
            PlacementArea("left", Polygon2D.rectangle(0, 0, 0.04, 0.06)),
            PlacementArea("right", Polygon2D.rectangle(0.04, 0, 0.08, 0.06)),
        ],
    )
    return PlacementProblem([board])


class TestClearanceRules:
    """A clearance rule binds the placer, not only the DRC."""

    @pytest.mark.parametrize(
        "board, rule",
        [
            ("demo_board", ClearanceRule(clearance=1e-3)),
            ("demo_board", ClearanceRule(clearance=2e-3)),
            ("demo_board", ClearanceRule("CX2", "CX5", 3e-3)),
            ("buck_ruled", ClearanceRule(clearance=1e-3)),
            ("buck_ruled", ClearanceRule(clearance=2e-3)),
            ("buck_ruled", ClearanceRule("Q1", "CTRL", 3e-3)),
        ],
        ids=["demo-1mm", "demo-2mm", "demo-pair", "buck-1mm", "buck-2mm", "buck-pair"],
    )
    def test_placed_layout_keeps_the_rule(self, board, rule):
        problem = read_problem((BOARDS / f"{board}.txt").read_text())
        problem.rules.clearance.append(rule)
        try:
            report = AutoPlacer(problem).run()
        except PlacementError:
            return  # refusing is legal; placing into a violation is not
        assert report.violations_after == 0

    def test_clearance_between_precedence(self):
        problem = _two_area_problem()
        a = problem.add_component(PlacedComponent("A", FilmCapacitorX2()))
        b = problem.add_component(PlacedComponent("B", FilmCapacitorX2(clearance=1e-3)))
        assert problem.clearance_between(a, b) == 1e-3  # larger own clearance
        problem.rules.clearance.append(ClearanceRule(clearance=0.2e-3))
        assert problem.clearance_between(a, b) == 0.2e-3  # global rule
        problem.rules.clearance.append(ClearanceRule("B", "A", 3e-3))
        assert problem.clearance_between(b, a) == 3e-3  # pair rule


class TestUnknownAreaName:
    """An allowed area that does not exist admits nothing (PLC005)."""

    def _problem(self) -> PlacementProblem:
        problem = _two_area_problem()
        for i in range(4):
            problem.add_component(
                PlacedComponent(f"C{i + 1}", FilmCapacitorX2(), allowed_areas=("ghost",))
            )
        return problem

    def test_no_allowed_area(self):
        problem = self._problem()
        assert problem.allowed_areas(problem.components["C1"]) == []
        bare = PlacementProblem([Board(0, Polygon2D.rectangle(0, 0, 0.08, 0.06))])
        comp = bare.add_component(PlacedComponent("C1", FilmCapacitorX2()))
        assert [a.name for a in bare.allowed_areas(comp)] == ["board0"]
        comp.allowed_areas = ("ghost",)
        assert bare.allowed_areas(comp) == []

    def test_placer_raises(self):
        with pytest.raises(PlacementError, match="C1"):
            AutoPlacer(self._problem()).run()

    def test_drc_flags_keepin(self):
        problem = self._problem()
        problem.components["C1"].placement = Placement2D.at(0.02, 0.03)  # inside "left"
        violations = DesignRuleChecker(problem).check_keepin()
        assert [(v.kind, v.refs) for v in violations] == [("keepin", ("C1",))]


class TestKeepoutBlocking:
    def test_z_range(self):
        keepout = Keepout3D("K", Cuboid(Rect(0, 0, 0.01, 0.01), 4e-3, 0.03))
        assert keepout.blocks(0.0, 5e-3)
        assert not keepout.blocks(0.0, 3e-3)
        assert not keepout.blocks(0.0, 4e-3)  # touching the underside
        assert not keepout.blocks(0.03, 5e-3)  # standing on top
        assert keepout.blocks(2e-3, 3e-3)  # raised into it


class TestRuleDistance:
    def test_applies_only_to_placed_pairs_on_one_board(self):
        problem = PlacementProblem(
            [
                Board(0, Polygon2D.rectangle(0, 0, 0.08, 0.06)),
                Board(1, Polygon2D.rectangle(0, 0, 0.08, 0.06)),
            ]
        )
        a = problem.add_component(PlacedComponent("A", FilmCapacitorX2()))
        b = problem.add_component(PlacedComponent("B", FilmCapacitorX2()))
        rule = MinDistanceRule("A", "B", pemd=0.02)
        problem.rules = RuleSet(min_distance=[MinDistanceRule("A", "Z", pemd=0.02), rule])
        assert list(problem.rule_distances()) == []  # Z is missing, A and B unplaced
        a.placement = Placement2D.at(0.01, 0.03)
        b.placement = Placement2D.at(0.04, 0.03)
        [(applied, emd, distance, midpoint)] = problem.rule_distances()
        assert applied is rule
        assert emd == pytest.approx(0.02)
        assert distance == pytest.approx(0.03)
        assert midpoint == (a.center() + b.center()) / 2.0
        assert [r for r, _e, _d, _m in problem.rule_distances(only="B")] == [rule]
        assert list(problem.rule_distances(only="Z")) == []
        b.board = 1
        assert list(problem.rule_distances()) == []


#: The DRC categories a placer decision is responsible for.
_PLACER_KINDS = {"overlap", "clearance", "keepin", "keepout", "min_distance"}


@pytest.mark.parametrize("index", range(10))
def test_placer_accepted_layout_is_drc_clean(index):
    """Seeded random boards (the placement-reference generator) with
    random global and pairwise clearance rules: every position the placer
    commits keeps every spacing, keepin, keepout and min-distance rule."""
    spec = harness.random_board(100 + index)
    problem = harness.build_random_problem(spec)
    rng = random.Random(f"placement-legality:{index}")
    refs = sorted(problem.components)
    if rng.random() < 0.6:
        problem.rules.clearance.append(ClearanceRule(clearance=rng.uniform(0.3e-3, 2e-3)))
    for _ in range(rng.randint(0, 4)):
        ref_a, ref_b = rng.sample(refs, 2)
        problem.rules.clearance.append(ClearanceRule(ref_a, ref_b, rng.uniform(0.0, 4e-3)))
    try:
        AutoPlacer(problem, optimize_rotation=spec["mode"] == "auto").run()
    except PlacementError:
        pass  # the parts it did place must still be legal
    accepted = {c.refdes for c in problem.placed() if not c.fixed}
    assert accepted
    violations = [
        v
        for v in DesignRuleChecker(problem).check_all()
        if v.kind in _PLACER_KINDS and accepted & set(v.refs)
    ]
    assert violations == []
