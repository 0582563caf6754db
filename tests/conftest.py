"""Shared fixtures.

Expensive artefacts (rule derivation, full design-flow comparisons) are
session-scoped so the suite exercises them exactly once; cheap builders are
function-scoped factories so tests can mutate freely.
"""

from __future__ import annotations

import pytest

from repro.components import (
    FilmCapacitorX2,
    PowerDiode,
    PowerMosfet,
    small_bobbin_choke,
)
from repro.converters import BuckConverterDesign
from repro.core import EmiDesignFlow
from repro.geometry import Polygon2D
from repro.placement import Board, PlacedComponent, PlacementProblem
from repro.rules import MinDistanceRule, RuleSet


@pytest.fixture(autouse=True)
def _isolated_coupling_cache(monkeypatch, tmp_path):
    """Keep the persistent coupling cache out of the user's ~/.cache."""
    monkeypatch.setenv("REPRO_EMI_CACHE_DIR", str(tmp_path / "coupling-cache"))


@pytest.fixture
def x2_cap():
    return FilmCapacitorX2()


@pytest.fixture
def bobbin():
    return small_bobbin_choke()


def build_small_problem(with_rules: bool = True) -> PlacementProblem:
    """A 7-part problem on an 80x60 board, optionally with PEMD rules."""
    board = Board(0, Polygon2D.rectangle(0.0, 0.0, 0.08, 0.06))
    problem = PlacementProblem([board])
    problem.add_component(PlacedComponent("C1", FilmCapacitorX2()))
    problem.add_component(PlacedComponent("C2", FilmCapacitorX2()))
    problem.add_component(PlacedComponent("C3", FilmCapacitorX2()))
    problem.add_component(PlacedComponent("L1", small_bobbin_choke()))
    problem.add_component(PlacedComponent("L2", small_bobbin_choke()))
    problem.add_component(PlacedComponent("Q1", PowerMosfet()))
    problem.add_component(PlacedComponent("D1", PowerDiode()))
    problem.add_net("N1", [("C1", "1"), ("L1", "1")])
    problem.add_net("N2", [("L1", "2"), ("C2", "1"), ("Q1", "D")])
    problem.add_net("N3", [("Q1", "S"), ("D1", "K"), ("L2", "1")])
    problem.add_net("N4", [("L2", "2"), ("C3", "1")])
    if with_rules:
        problem.rules = RuleSet(
            min_distance=[
                MinDistanceRule("C1", "C2", pemd=0.025),
                MinDistanceRule("C1", "L1", pemd=0.030),
                MinDistanceRule("L1", "L2", pemd=0.035),
                MinDistanceRule("C2", "L2", pemd=0.028),
                MinDistanceRule("C2", "C3", pemd=0.022),
            ]
        )
    return problem


@pytest.fixture
def small_problem() -> PlacementProblem:
    return build_small_problem()


@pytest.fixture(scope="session")
def buck_design() -> BuckConverterDesign:
    return BuckConverterDesign()


@pytest.fixture(scope="session")
def design_flow(buck_design) -> EmiDesignFlow:
    """A flow with sensitivity and rules already computed (cached inside)."""
    flow = EmiDesignFlow(buck_design)
    flow.derive_rules()
    return flow


@pytest.fixture(scope="session")
def layout_comparison(design_flow):
    """The baseline-versus-optimised evaluation pair (expensive; run once)."""
    return design_flow.compare_layouts()
