"""The pose-keyed placed state never goes stale.

``PlacedComponent`` keeps its footprint AABB and world axis per
``Placement2D`` object, and ``PlacementProblem.rule_distances`` keeps each
rule's (EMD, distance) per pair of poses.  Every DRC verdict, rule marker
and footprint after any sequence of interactive operations must equal
those of a fresh problem rebuilt from ``clone_state()`` (which has derived
nothing yet), and the memoised values must equal the pose formulas.
"""

import functools

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.components import FilmCapacitorX2, PowerDiode, PowerMosfet, small_bobbin_choke
from repro import obs
from repro.geometry import Cuboid, OrientedRect, Placement2D, Polygon2D, Rect, Vec2
from repro.placement import (
    AutoPlacer,
    Board,
    DesignRuleChecker,
    InteractiveSession,
    Keepout3D,
    PlacedComponent,
    PlacementArea,
    PlacementProblem,
)
from repro.rules import GroupCoherenceRule, MinDistanceRule, RuleSet, emd_for_pair

WIDTH, HEIGHT = 0.1, 0.07
REFS = ("C1", "C2", "C3", "L1", "L2", "Q1", "D1")


def build_problem() -> PlacementProblem:
    """Seven parts, five PEMD rules, a group rule, a keepout and two
    overlapping areas (L2 may only use the east one, C3 the west one)."""
    board = Board(
        0,
        Polygon2D.rectangle(0.0, 0.0, WIDTH, HEIGHT),
        areas=[
            PlacementArea("west", Polygon2D.rectangle(0.0, 0.0, 0.06, HEIGHT)),
            PlacementArea("east", Polygon2D.rectangle(0.045, 0.0, WIDTH, HEIGHT)),
        ],
        keepouts=[Keepout3D("K1", Cuboid(Rect(0.04, 0.025, 0.055, 0.04), 0.0, 0.03))],
    )
    problem = PlacementProblem([board])
    parts = {
        "C1": FilmCapacitorX2(),
        "C2": FilmCapacitorX2(),
        "C3": FilmCapacitorX2(),
        "L1": small_bobbin_choke(),
        "L2": small_bobbin_choke(),
        "Q1": PowerMosfet(),
        "D1": PowerDiode(),
    }
    for ref in REFS:
        problem.add_component(PlacedComponent(ref, parts[ref]))
    problem.components["L2"].allowed_areas = ("east",)
    problem.components["C3"].allowed_areas = ("west",)
    problem.add_net("N1", [("C1", "1"), ("L1", "1")])
    problem.add_net("N2", [("L1", "2"), ("C2", "1"), ("Q1", "D")])
    problem.add_net("N3", [("Q1", "S"), ("D1", "K"), ("L2", "1")])
    problem.rules = RuleSet(
        min_distance=[
            MinDistanceRule("C1", "C2", pemd=0.025),
            MinDistanceRule("C1", "L1", pemd=0.030, residual=0.2),
            MinDistanceRule("L1", "L2", pemd=0.035),
            MinDistanceRule("C2", "L2", pemd=0.028),
            MinDistanceRule("C2", "C3", pemd=0.022),
        ],
        groups=[GroupCoherenceRule("power", ("Q1", "D1", "L2"), max_spread=0.03)],
    )
    return problem


@functools.lru_cache(maxsize=1)
def placed_state() -> tuple[tuple[str, Placement2D | None], ...]:
    problem = build_problem()
    AutoPlacer(problem).run()
    return tuple(problem.clone_state().items())


def fresh_copy(state: dict[str, Placement2D | None]) -> PlacementProblem:
    problem = build_problem()
    problem.restore_state(state)
    return problem


refs = st.sampled_from(REFS)
coords = st.tuples(
    st.floats(min_value=0.0, max_value=WIDTH, allow_nan=False),
    st.floats(min_value=0.0, max_value=HEIGHT, allow_nan=False),
)
steps = st.one_of(
    st.tuples(st.just("move_to"), refs, coords),
    st.tuples(
        st.just("move_by"),
        refs,
        st.tuples(
            st.floats(min_value=-0.01, max_value=0.01, allow_nan=False),
            st.floats(min_value=-0.01, max_value=0.01, allow_nan=False),
        ),
    ),
    st.tuples(st.just("rotate_to"), refs, st.sampled_from((0.0, 45.0, 90.0, 180.0, 270.0))),
    st.tuples(st.just("undo"), st.just(""), st.just(None)),
    st.tuples(st.just("restore"), st.just(""), st.integers(min_value=0, max_value=1000)),
    st.tuples(st.just("lift"), refs, st.just(None)),
    st.tuples(st.just("suggest"), refs, st.booleans()),
)


def assert_matches_fresh(problem: PlacementProblem) -> None:
    fresh = fresh_copy(problem.clone_state())
    checker, oracle = DesignRuleChecker(problem), DesignRuleChecker(fresh)
    assert checker.check_all() == oracle.check_all()
    assert checker.rule_markers() == oracle.rule_markers()
    for ref, comp in problem.components.items():
        if comp.placement is None:
            continue
        footprint = OrientedRect.from_footprint(
            comp.component.footprint_w, comp.component.footprint_h, comp.placement
        ).aabb()
        assert comp.footprint_aabb() == fresh.components[ref].footprint_aabb() == footprint
        assert comp.axis_world() == comp.component.magnetic_axis_world(comp.placement)
    for rule, emd, distance, midpoint in problem.rule_distances():
        a, b = problem.components[rule.ref_a], problem.components[rule.ref_b]
        assert emd == emd_for_pair(
            a.component, a.placement, b.component, b.placement, rule.pemd, rule.residual
        )
        assert distance == a.center().distance_to(b.center())
        assert midpoint == (a.center() + b.center()) / 2.0


class TestStaleState:
    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(st.lists(steps, min_size=1, max_size=12))
    def test_memo_matches_a_fresh_problem_after_every_step(self, script):
        problem = fresh_copy(dict(placed_state()))
        session = InteractiveSession(problem)
        snapshots = [problem.clone_state()]
        assert_matches_fresh(problem)
        for op, ref, arg in script:
            comp = problem.components.get(ref)
            if op == "move_to":
                session.select(ref)
                result = session.move_to(Vec2(*arg))
                assert result.violations == DesignRuleChecker(
                    fresh_copy(problem.clone_state())
                ).check_component(ref)
            elif op in ("move_by", "rotate_to") and comp.placement is not None:
                session.select(ref)
                if op == "move_by":
                    session.move_by(Vec2(*arg))
                else:
                    session.rotate_to(arg)
            elif op == "undo":
                session.undo()
            elif op == "restore":
                problem.restore_state(snapshots[arg % len(snapshots)])
            elif op == "lift":
                problem.restore_state({ref: None})
            elif op == "suggest":
                before = problem.clone_state()
                position = session.suggest_position(ref)
                assert problem.clone_state() == before
                if arg and position is not None:
                    session.select(ref)
                    session.move_to(position)
            snapshots.append(problem.clone_state())
            assert_matches_fresh(problem)


class TestWorkCounters:
    def test_a_move_rederives_only_the_moved_part(self):
        problem = fresh_copy(dict(placed_state()))
        checker = DesignRuleChecker(problem)
        checker.check_all()
        checker.rule_markers()
        rules_of_c2 = len(problem.rule_distances(only="C2"))
        tracer = obs.enable(meta={"test": "pose memo"})
        try:
            with tracer.span("walks"):
                checker.check_all()
                checker.rule_markers()
            comp = problem.components["C2"]
            comp.placement = comp.placement.translated(Vec2(1e-3, 0.0))
            with tracer.span("move"):
                checker.check_all()
                checker.rule_markers()
        finally:
            obs.disable()
        report = tracer.report()
        walks = report.find("walks").total_counters()
        move = report.find("move").total_counters()
        assert "placement.pose_derivations" not in walks
        assert "placement.rule_evals" not in walks
        assert move["placement.pose_derivations"] == 1
        assert move["placement.rule_evals"] == rules_of_c2 > 0

    def test_equality_and_repr_ignore_the_memo(self):
        problem = fresh_copy(dict(placed_state()))
        comp = problem.components["L1"]
        twin = PlacedComponent("L1", comp.component, comp.placement)
        comp.footprint_aabb()
        assert comp == twin
        assert repr(comp) == repr(twin)
        assert "_pose" not in repr(comp)
