"""Property tests of the EMD law and of the rotation step that minimises it.

``emd_for_pair`` is the one EMD formula: the placer, the DRC, the metrics
and the rotation step all evaluate it (the rotation step from world axes
computed once per rotation choice).  The physical invariants are checked
on random pairs and random problems.

``TestScalarReference`` keeps the rotation step's former two-branch EMD
(the in-plane angle difference when both axes lie in the board plane, the
3-D axis angle otherwise) and its former coordinate descent as the
reference: on fixed and seeded boards the plans must be identical and every
EMD within 1e-15 of its PEMD.
"""

import importlib.util
import json
import math
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.components import (
    BobbinChoke,
    CeramicCapacitor,
    FilmCapacitorX2,
    cm_choke_3w,
    shielded_power_inductor,
    small_bobbin_choke,
)
from repro.converters import build_demo_board
from repro.geometry import Placement2D, Polygon2D, Vec2
from repro.placement import (
    Board,
    PlacedComponent,
    PlacementProblem,
    RotationOptimizer,
)
from repro.placement.rotation import MAX_PASSES
from repro.rules import MinDistanceRule, RuleSet, emd_floor, emd_for_pair

from conftest import build_small_problem

_ROOT = Path(__file__).resolve().parents[1]


def _load(name, path):
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


harness = _load("placement_reference_harness", _ROOT / "tests/data/make_placement_reference.py")
workloads = _load("perfbench_workloads", _ROOT / "perfbench/workloads.py")

#: Parts with in-plane axes, vertical axes and rotating stray fields (one
#: instance each: a component's axis and residual do not depend on its pose).
PARTS = (
    FilmCapacitorX2(),
    CeramicCapacitor(),
    small_bobbin_choke(),
    BobbinChoke(orientation="vertical"),
    cm_choke_3w(),
    shielded_power_inductor(),
)
ROTATION_SETS = (
    (0.0, 90.0, 180.0, 270.0),
    (0.0, 45.0, 90.0, 135.0),
    (0.0, 180.0),
    (0.0, 30.0, 60.0, 90.0, 120.0, 150.0),
)

parts = st.sampled_from(PARTS)
pemds = st.floats(min_value=0.005, max_value=0.03, allow_nan=False)
residuals = st.floats(min_value=0.0, max_value=1.0, allow_nan=False)
coords = st.floats(min_value=-0.1, max_value=0.1, allow_nan=False)
degrees = st.floats(min_value=-360.0, max_value=360.0, allow_nan=False)


@st.composite
def placements(draw):
    return Placement2D.at(draw(coords), draw(coords), draw(degrees))


def at_rotation(deg: float) -> Placement2D:
    """The pose the rotation step evaluates a rotation choice at."""
    return Placement2D(Vec2.zero(), math.radians(deg))


class TestEmdInvariants:
    @given(parts, placements(), parts, placements(), pemds, residuals)
    def test_symmetric_in_the_pair(self, a, pa, b, pb, pemd, residual):
        assert emd_for_pair(a, pa, b, pb, pemd, residual) == emd_for_pair(
            b, pb, a, pa, pemd, residual
        )

    @given(parts, placements(), parts, placements(), pemds, residuals)
    def test_between_floor_and_pemd(self, a, pa, b, pb, pemd, residual):
        emd = emd_for_pair(a, pa, b, pb, pemd, residual)
        assert emd_floor(a, b, residual) * pemd <= emd <= pemd

    @given(parts, placements(), parts, placements(), pemds, residuals, st.booleans())
    def test_half_turn_leaves_emd_unchanged(self, a, pa, b, pb, pemd, residual, turn_a):
        emd = emd_for_pair(a, pa, b, pb, pemd, residual)
        turned = (pa if turn_a else pb).rotation_rad + math.pi
        if turn_a:
            pa = pa.rotated_to(turned)
        else:
            pb = pb.rotated_to(turned)
        # ``turned`` is the double nearest rotation + pi: the turn itself is
        # off by at most ulp(turned) / 2 (and math.pi by less than eps).  The
        # EMD is pemd * max(|cos(alpha)|, floor) with |cos(alpha)| = |axis_a .
        # axis_b|, and each axis component is a cos or sin of the rotation, so
        # an angle error reaches the EMD times at most pemd.  Evaluating
        # cos/sin, the rotated axis, the dot product and cos(acos(.)) adds a
        # few eps more.
        bound = pemd * (math.ulp(turned) / 2 + 8 * sys.float_info.epsilon)
        assert emd_for_pair(a, pa, b, pb, pemd, residual) == pytest.approx(
            emd, rel=0.0, abs=bound
        )


@st.composite
def rotation_problems(draw):
    """2-6 parts with random rotation sets, rules and an optional fixed part."""
    n = draw(st.integers(min_value=2, max_value=6))
    problem = PlacementProblem([Board(0, Polygon2D.rectangle(0.0, 0.0, 0.1, 0.1))])
    for i in range(n):
        placed = problem.add_component(
            PlacedComponent(
                f"U{i}", draw(parts), allowed_rotations_deg=draw(st.sampled_from(ROTATION_SETS))
            )
        )
        if draw(st.integers(min_value=0, max_value=3)) == 0:
            placed.fixed = True
            placed.placement = Placement2D.at(0.05, 0.05, draw(st.sampled_from((0.0, 30.0, 90.0))))
    rules = [
        MinDistanceRule(f"U{i}", f"U{j}", pemd=draw(pemds), residual=draw(residuals) / 4.0)
        for i in range(n)
        for j in range(i + 1, n)
        if draw(st.booleans())
    ]
    problem.rules = RuleSet(min_distance=rules)
    return problem


def plan_sum(problem: PlacementProblem, rotations: dict[str, float]) -> float:
    """The EMD sum of a problem's rules at given rotations, by ``emd_for_pair``."""
    components = problem.components
    return sum(
        emd_for_pair(
            components[r.ref_a].component,
            at_rotation(rotations[r.ref_a]),
            components[r.ref_b].component,
            at_rotation(rotations[r.ref_b]),
            r.pemd,
            r.residual,
        )
        for r in problem.rules.min_distance
    )


class TestPlanSums:
    @settings(max_examples=60, deadline=None)
    @given(rotation_problems())
    def test_sums_are_emd_for_pair_at_the_rotations(self, problem):
        plan = RotationOptimizer(problem).optimize()
        start = {
            ref: c.placement.rotation_deg if c.is_placed else c.rotations()[0]
            for ref, c in problem.components.items()
        }
        assert plan.initial_emd_sum == plan_sum(problem, start)
        assert plan.final_emd_sum == plan_sum(problem, plan.rotations_deg)
        assert plan.final_emd_sum <= plan.initial_emd_sum
        assert 1 <= plan.passes <= MAX_PASSES

    @settings(max_examples=60, deadline=None)
    @given(rotation_problems())
    def test_plan_equals_reference(self, problem):
        assert_same_plan(problem)


# -- the former two-branch EMD and descent, kept as the reference -----------------


def reference_emd(problem, rule, rot_a, rot_b):
    """The rotation step's former EMD under rotations ``rot_a``/``rot_b`` [deg]."""
    a = problem.components[rule.ref_a].component
    b = problem.components[rule.ref_b].component
    residual = max(a.decoupling_residual, b.decoupling_residual, rule.residual)
    if not a.has_inplane_axis() or not b.has_inplane_axis():
        axis_a = a.magnetic_axis_world(at_rotation(rot_a))
        axis_b = b.magnetic_axis_world(at_rotation(rot_b))
        alpha = math.acos(min(1.0, abs(axis_a.dot(axis_b))))
    else:
        local_a, local_b = a.magnetic_axis_local(), b.magnetic_axis_local()
        alpha = (math.atan2(local_a.y, local_a.x) + math.radians(rot_a)) - (
            math.atan2(local_b.y, local_b.x) + math.radians(rot_b)
        )
    return rule.pemd * max(abs(math.cos(alpha)), residual)


def reference_plan(problem):
    """(rotations, passes, initial sum, final sum) of the former descent."""
    components = problem.components
    rotations = {
        ref: c.placement.rotation_deg if c.is_placed else c.rotations()[0]
        for ref, c in components.items()
    }

    def total(rules, rot):
        return sum(reference_emd(problem, r, rot[r.ref_a], rot[r.ref_b]) for r in rules)

    rules = [
        r for r in problem.rules.min_distance if r.ref_a in components and r.ref_b in components
    ]
    involved = {}
    for rule in rules:
        involved.setdefault(rule.ref_a, []).append(rule)
        involved.setdefault(rule.ref_b, []).append(rule)
    order = sorted(involved, key=lambda ref: sum(r.pemd for r in involved[ref]), reverse=True)
    initial = total(rules, rotations)
    passes = 0
    for _pass in range(MAX_PASSES):
        passes += 1
        changed = False
        for ref in order:
            placed = components[ref]
            if placed.fixed or not placed.component.has_inplane_axis():
                continue
            best_angle = rotations[ref]
            best_cost = total(involved[ref], rotations)
            for angle in placed.rotations():
                cost = total(involved[ref], {**rotations, ref: angle})
                if cost < best_cost - 1e-12:
                    best_cost, best_angle = cost, angle
            if best_angle != rotations[ref]:
                rotations[ref] = best_angle
                changed = True
        if not changed:
            break
    return rotations, passes, initial, total(rules, rotations)


def assert_same_plan(problem):
    rotations, passes, initial, final = reference_plan(problem)
    plan = RotationOptimizer(problem).optimize()
    assert plan.rotations_deg == rotations
    assert plan.passes == passes
    budget = 1e-15 * sum(r.pemd for r in problem.rules.min_distance)
    assert plan.initial_emd_sum == pytest.approx(initial, rel=0.0, abs=budget)
    assert plan.final_emd_sum == pytest.approx(final, rel=0.0, abs=budget)


def assert_same_emds(problem):
    """Every rule at every pair of rotation choices, old formula vs new."""
    components = problem.components
    for rule in problem.rules.min_distance:
        a, b = components[rule.ref_a], components[rule.ref_b]
        for rot_a in a.rotations():
            for rot_b in b.rotations():
                emd = emd_for_pair(
                    a.component,
                    at_rotation(rot_a),
                    b.component,
                    at_rotation(rot_b),
                    rule.pemd,
                    rule.residual,
                )
                assert emd == pytest.approx(
                    reference_emd(problem, rule, rot_a, rot_b), rel=0.0, abs=1e-15 * rule.pemd
                )


def _buck():
    reference = json.loads((_ROOT / "tests/data/placement_reference.json").read_text())
    return harness._fig16_problem(reference["fig16"]["rules"])


BOARDS = {
    "small": build_small_problem,
    "demo": build_demo_board,
    "buck": _buck,
    **{
        f"place_drc_seed{seed}_{i}": (
            lambda seed=seed, i=i: workloads._place_problem(workloads._place_board(seed, i))
        )
        for seed in (1, 2, 3, 4)
        for i in range(3)
    },
    **{
        f"random_{i:02d}": (lambda i=i: harness.build_random_problem(harness.random_board(i)))
        for i in range(harness.RANDOM_BOARDS)
    },
}


class TestScalarReference:
    @pytest.mark.parametrize("board", sorted(BOARDS))
    def test_plan_and_emds_equal_the_former_formula(self, board):
        problem = BOARDS[board]()
        assert_same_emds(problem)
        assert_same_plan(problem)
