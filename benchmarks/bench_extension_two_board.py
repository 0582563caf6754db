"""Extension — two-board placement with partitioning (paper section 4).

The tool supports "1 or 2 rigid connected boards"; step 2 of the automatic
method partitions the circuit and "the resulting partitions are assigned
to board sides for placement".  This bench runs the full pipeline on a
two-board filter problem and reports cut nets, area balance, and the EMC
bonus: rules between cross-board pairs deactivate (rigid separation).
"""

from repro.components import (
    CeramicCapacitor,
    ElectrolyticCapacitor,
    FilmCapacitorX2,
    PowerMosfet,
    small_bobbin_choke,
)
from repro.geometry import Polygon2D
from repro.placement import (
    AutoPlacer,
    Board,
    DesignRuleChecker,
    Partitioner,
    PlacedComponent,
    PlacementProblem,
)
from repro.rules import MinDistanceRule, RuleSet
from repro.viz import series_table


def build_two_board_problem() -> PlacementProblem:
    boards = [
        Board(0, Polygon2D.rectangle(0, 0, 0.06, 0.05)),
        Board(1, Polygon2D.rectangle(0, 0, 0.06, 0.05)),
    ]
    problem = PlacementProblem(boards)
    catalogue = {
        "CX1": FilmCapacitorX2(),
        "CX2": FilmCapacitorX2(),
        "L1": small_bobbin_choke(),
        "L2": small_bobbin_choke(),
        "CE1": ElectrolyticCapacitor(),
        "CE2": ElectrolyticCapacitor(),
        "Q1": PowerMosfet(),
        "CC1": CeramicCapacitor(),
        "CC2": CeramicCapacitor(),
        "CC3": CeramicCapacitor(),
    }
    for ref, comp in catalogue.items():
        problem.add_component(PlacedComponent(ref, comp))
    problem.add_net("NI1", [("CX1", "1"), ("L1", "1"), ("CE1", "1")])
    problem.add_net("NI2", [("L1", "2"), ("Q1", "D"), ("CC1", "1")])
    problem.add_net("NO1", [("CX2", "1"), ("L2", "1"), ("CE2", "1")])
    problem.add_net("NO2", [("L2", "2"), ("CC2", "1"), ("CC3", "1")])
    problem.add_net("BRIDGE", [("Q1", "S"), ("L2", "1")])
    problem.define_group("input", ["CX1", "L1", "CE1"])
    problem.define_group("output", ["CX2", "L2", "CE2"])
    problem.rules = RuleSet(
        min_distance=[
            MinDistanceRule("CX1", "CX2", pemd=0.030),
            MinDistanceRule("CX1", "L1", pemd=0.024),
            MinDistanceRule("CX2", "L2", pemd=0.024),
            MinDistanceRule("L1", "L2", pemd=0.028),
            MinDistanceRule("CE1", "L1", pemd=0.018),
            MinDistanceRule("CE2", "L2", pemd=0.018),
        ]
    )
    return problem


def test_extension_two_board(benchmark, record):
    def full_pipeline():
        problem = build_two_board_problem()
        partition_result = Partitioner(problem).run()
        report = AutoPlacer(problem, partition=False).run()
        return problem, partition_result, report

    problem, partition_result, report = benchmark.pedantic(
        full_pipeline, rounds=3, iterations=1
    )

    cross_board_rules = [
        r
        for r in problem.rules.min_distance
        if problem.components[r.ref_a].board != problem.components[r.ref_b].board
    ]
    rows = [
        ["components", len(problem.components)],
        ["cut nets", partition_result.cut_nets],
        ["area imbalance", f"{partition_result.area_balance * 100:.1f}%"],
        ["board 0 parts", sum(1 for c in problem.components.values() if c.board == 0)],
        ["board 1 parts", sum(1 for c in problem.components.values() if c.board == 1)],
        ["rules deactivated by partition", len(cross_board_rules)],
        ["violations after placement", report.violations_after],
    ]
    record("extension_two_board", series_table(["metric", "value"], rows))

    assert report.violations_after == 0
    assert partition_result.area_balance <= 0.2 + 1e-9
    assert DesignRuleChecker(problem).is_legal()
    # Groups stay atomic across the partition.
    for group in problem.groups:
        sides = {problem.components[m].board for m in group.members}
        assert len(sides) == 1
