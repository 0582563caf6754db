"""The 29-device demo board of the paper's Fig. 9.

Section 4: *"The task for the method was to place 29 devices on a specified
area by taking 100 minimum distances into account.  Three functional groups
were defined.  The result is a legal component arrangement and was computed
by the method in seconds."*

This generator builds a board with exactly that shape: 29 parts drawn from
the library, 100 pairwise minimum-distance rules (the densest pairs by
stray-field strength), and three functional groups.
"""

from __future__ import annotations

import itertools

from ..components import (
    BobbinChoke,
    CeramicCapacitor,
    ChipResistor,
    Component,
    Connector,
    ControllerIC,
    ElectrolyticCapacitor,
    FilmCapacitorX2,
    PowerDiode,
    PowerMosfet,
    ShuntResistor,
    TantalumCapacitorSMD,
)
from ..geometry import Polygon2D
from ..placement import Board, PlacedComponent, PlacementProblem
from ..rules import MinDistanceRule, RuleSet

__all__ = ["build_demo_board", "DEMO_DEVICE_COUNT", "DEMO_RULE_COUNT"]

DEMO_DEVICE_COUNT = 29
DEMO_RULE_COUNT = 100


def _demo_parts() -> dict[str, Component]:
    """29 parts: a two-stage filter board with dense magnetics."""
    parts: dict[str, Component] = {}
    for i in range(6):
        parts[f"CX{i + 1}"] = FilmCapacitorX2(part_number=f"CX{i + 1}-X2")
    for i in range(4):
        parts[f"L{i + 1}"] = BobbinChoke(
            part_number=f"L{i + 1}-CHOKE", orientation="horizontal"
        )
    for i in range(3):
        parts[f"CE{i + 1}"] = ElectrolyticCapacitor(part_number=f"CE{i + 1}-ELKO")
    for i in range(4):
        parts[f"CT{i + 1}"] = TantalumCapacitorSMD(part_number=f"CT{i + 1}-TANT")
    for i in range(4):
        parts[f"CC{i + 1}"] = CeramicCapacitor(part_number=f"CC{i + 1}-MLCC")
    parts["Q1"] = PowerMosfet(part_number="Q1-DPAK")
    parts["Q2"] = PowerMosfet(part_number="Q2-DPAK")
    parts["D1"] = PowerDiode(part_number="D1-SMC")
    parts["SH1"] = ShuntResistor(part_number="SH1-2512")
    parts["U1"] = ControllerIC(part_number="U1-SO8")
    parts["R1"] = ChipResistor(part_number="R1-1206")
    parts["R2"] = ChipResistor(part_number="R2-1206")
    parts["J1"] = Connector(part_number="J1-CONN")
    assert len(parts) == DEMO_DEVICE_COUNT
    return parts


def build_demo_board(
    board_width: float = 100e-3, board_height: float = 80e-3
) -> PlacementProblem:
    """The Fig. 9 benchmark problem: 29 devices, 100 rules, 3 groups."""
    board = Board(0, Polygon2D.rectangle(0.0, 0.0, board_width, board_height))
    problem = PlacementProblem([board])
    parts = _demo_parts()
    for refdes, comp in parts.items():
        problem.add_component(PlacedComponent(refdes, comp))

    # Chain nets along the two filter stages (keeps wirelength meaningful).
    chain = ["J1", "CX1", "L1", "CX2", "CE1", "Q1", "L2", "CT1", "CX3", "L3"]
    for i in range(len(chain) - 1):
        problem.add_net(f"N{i + 1}", [(chain[i], "1"), (chain[i + 1], "1")])
    problem.add_net("NQ", [("Q2", "D"), ("D1", "K"), ("L4", "1")])
    problem.add_net("NS", [("SH1", "1"), ("U1", "1"), ("R1", "1"), ("R2", "1")])

    problem.define_group("input_stage", ["CX1", "L1", "CX2", "CE1", "CT2", "CC1"])
    problem.define_group("power", ["Q1", "Q2", "D1", "L2", "L4", "SH1", "CE2"])
    problem.define_group("output_stage", ["CX3", "L3", "CT1", "CC2", "CE3"])

    # 100 min-distance rules: strongest-field pairs first.
    ranked = sorted(parts, key=lambda r: parts[r].stray_field_strength, reverse=True)
    rules: list[MinDistanceRule] = []
    for ref_a, ref_b in itertools.combinations(ranked, 2):
        if len(rules) >= DEMO_RULE_COUNT:
            break
        strength = min(parts[ref_a].stray_field_strength, parts[ref_b].stray_field_strength)
        # PEMD scales with the weaker partner's stray field: chokes demand
        # ~30 mm against each other, small ceramics only a few mm.
        pemd = min(0.032, max(0.006, 0.012 + 4.0 * strength))
        rules.append(MinDistanceRule(ref_a, ref_b, pemd=pemd, source="demo"))
    problem.rules = RuleSet(min_distance=rules)
    assert len(problem.rules.min_distance) == DEMO_RULE_COUNT
    return problem
