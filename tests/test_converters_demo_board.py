"""Unit tests for the Fig. 9 demo board generator (29 devices, 100 rules)."""

import pytest

from repro.converters import (
    DEMO_DEVICE_COUNT,
    DEMO_RULE_COUNT,
    build_demo_board,
    layout_couplings,
)


class TestDemoBoard:
    def test_paper_quoted_sizes(self):
        problem = build_demo_board()
        assert len(problem.components) == DEMO_DEVICE_COUNT == 29
        assert len(problem.rules.min_distance) == DEMO_RULE_COUNT == 100
        assert len(problem.groups) == 3

    def test_rules_reference_existing_parts(self):
        problem = build_demo_board()
        for rule in problem.rules.min_distance:
            assert rule.ref_a in problem.components
            assert rule.ref_b in problem.components

    def test_pemd_range_sane(self):
        problem = build_demo_board()
        for rule in problem.rules.min_distance:
            assert 0.003 <= rule.pemd <= 0.04

    def test_strong_field_parts_rule_dense(self):
        problem = build_demo_board()
        choke_rules = problem.rules.rules_involving("L1")
        resistor_rules = problem.rules.rules_involving("R1")
        assert len(choke_rules) > len(resistor_rules)

    def test_groups_are_disjoint(self):
        problem = build_demo_board()
        seen: set[str] = set()
        for g in problem.groups:
            assert not (set(g.members) & seen)
            seen.update(g.members)

    def test_custom_board_size(self):
        problem = build_demo_board(board_width=0.12, board_height=0.09)
        xmin, _, xmax, _ = problem.board(0).outline.bbox()
        assert xmax - xmin == pytest.approx(0.12)


class TestLayoutCouplings:
    def test_empty_for_unplaced(self):
        problem = build_demo_board()
        assert layout_couplings(problem) == {}

    def test_pairs_sorted_and_floored(self):
        from repro.geometry import Placement2D

        problem = build_demo_board()
        for i, ref in enumerate(["CX1", "CX2", "L1"]):
            problem.components[ref].placement = Placement2D.at(0.02 + 0.025 * i, 0.02)
        ks = layout_couplings(problem, refdes_of_interest=["CX1", "CX2", "L1"])
        assert all(a < b for a, b in ks)
        assert all(abs(k) >= 1e-6 for k in ks.values())

    def test_shared_database_plane_is_not_overridden(self):
        from repro.coupling import CouplingDatabase

        database = CouplingDatabase()
        with pytest.raises(ValueError, match="ground plane"):
            layout_couplings(build_demo_board(), ground_plane_z=-1e-3, database=database)
        assert database.ground_plane_z is None
