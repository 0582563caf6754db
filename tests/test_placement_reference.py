"""Equivalence of the vectorised placer with the scalar loop it replaced.

``tests/data/placement_reference.json`` holds the positions and rotations
the per-candidate ``AutoPlacer._best_candidate`` loop chose on the fig09,
fig16 and scaling boards and on seeded random boards, plus one refinement
pass on each random board (see ``make_placement_reference.py`` next to it,
which also replays the cases).  The current placer must reproduce every
position exactly and score the same number of candidates.
"""

import importlib.util
import json
from pathlib import Path

import pytest

DATA = Path(__file__).parent / "data"
REFERENCE = json.loads((DATA / "placement_reference.json").read_text())

_spec = importlib.util.spec_from_file_location(
    "make_placement_reference", DATA / "make_placement_reference.py"
)
assert _spec is not None and _spec.loader is not None
harness = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(harness)


def test_reference_covers_the_requested_boards():
    names = set(REFERENCE)
    assert {"fig09", "fig16"} <= names
    assert {f"scaling_{n:02d}" for n in (8, 16, 24, 32, 48)} <= names
    randoms = [REFERENCE[n]["spec"] for n in names if n.startswith("random_")]
    assert len(randoms) >= 20
    areas = [s["geometry"]["areas"] for s in randoms]
    assert any(a and len(a[0]["polygon"]) == 6 for a in areas)  # L-shaped (concave)
    assert any(len(a) == 2 for a in areas)
    assert any("allowed_areas" in p for s in randoms for p in s["parts"])
    assert {k[4] for s in randoms for k in s["keepouts"]} == {0.0, 4e-3}
    assert any(s["fixed"] for s in randoms)
    assert sum("refined" in REFERENCE[n] for n in names) >= 20


@pytest.mark.parametrize("name", sorted(REFERENCE))
def test_placement_matches_reference(name):
    case = REFERENCE[name]
    got = harness.replay(name, case)
    assert got["error"] == case["error"]
    assert got["positions"] == case["positions"]
    assert got.get("refined") == case.get("refined")
    assert got["candidates_scored"] == case["candidates_scored"]
