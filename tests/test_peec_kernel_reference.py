"""Equivalence of the broadcast PEEC kernels with the scalar code they replaced.

``tests/data/peec_kernel_reference.json`` holds self-inductances and field
grids computed by the former per-filament-pair ``loop_self_inductance`` loop
and per-point ``b_field_grid`` loop (see ``make_peec_kernel_reference.py``
next to it).  The vectorised kernels must reproduce them to rtol 1e-12.
"""

import json
import math
from pathlib import Path

import numpy as np
import pytest
from filament_oracle import Filament, pack, pair_mutual, path_of, unpack

from repro.components import default_library
from repro.geometry import Vec3
from repro.peec import (
    CurrentPath,
    b_field,
    b_field_grid,
    loop_self_inductance,
    mutual_inductance_pairs,
)

REFERENCE = json.loads(
    (Path(__file__).parent / "data" / "peec_kernel_reference.json").read_text()
)
RTOL = 1e-12


def decode(rows: list[list[float]]) -> CurrentPath:
    return path_of([Filament(Vec3(*r[0:3]), Vec3(*r[3:6]), r[6], r[7], r[8]) for r in rows])


def pieces(f1: Filament, f2: Filament) -> int:
    """The near-field subdivision count of a skew pair (1 = none)."""
    gap = f1.midpoint.distance_to(f2.midpoint)
    if gap <= 1e-12:
        return 1
    ratio = max(f1.length, f2.length) / gap
    return min(8, math.ceil(ratio / 2.0)) if ratio > 4.0 else 1


@pytest.mark.parametrize("part_number", sorted(REFERENCE["library"]))
def test_library_self_inductance(part_number):
    path = default_library().create(part_number).current_path
    expected = REFERENCE["library"][part_number]
    assert loop_self_inductance(path) == pytest.approx(expected, rel=RTOL, abs=0.0)


@pytest.mark.parametrize("case", REFERENCE["paths"], ids=lambda c: c["name"])
def test_random_path_self_inductance(case):
    path = decode(case["filaments"])
    expected = case["self_inductance_h"]
    assert loop_self_inductance(path) == pytest.approx(expected, rel=RTOL, abs=0.0)


def test_random_paths_cover_every_pair_class():
    # Parallel, perpendicular, far skew and near skew pairs at every
    # reachable subdivision count (longest/gap > 4 implies pieces >= 3).
    seen: set[str] = set()
    for case in REFERENCE["paths"]:
        fils = unpack(decode(case["filaments"]).packed)
        for i in range(len(fils)):
            for j in range(i + 1, len(fils)):
                cos = fils[i].direction.dot(fils[j].direction)
                if abs(abs(cos) - 1.0) < 1e-12:
                    seen.add("parallel")
                elif abs(cos) < 1e-12:
                    seen.add("perpendicular")
                else:
                    seen.add(f"pieces_{pieces(fils[i], fils[j])}")
    assert seen >= {"parallel", "perpendicular"} | {f"pieces_{p}" for p in (1, *range(3, 9))}


@pytest.mark.parametrize("index", range(len(REFERENCE["fields"])))
def test_field_grid(index):
    case = REFERENCE["fields"][index]
    expected = np.array(case["b_t"])
    got = b_field_grid(
        [decode(rows) for rows in case["paths"]],
        np.array(case["xs"]),
        np.array(case["ys"]),
        case["z"],
        case["currents"],
    )
    # Components that cancel to ~0 by symmetry carry rounding noise of the
    # grid's field scale, so the absolute floor is relative to that scale.
    scale = float(np.abs(expected).max())
    np.testing.assert_allclose(got, expected, rtol=RTOL, atol=RTOL * scale)


def test_field_grid_keeps_on_axis_zero_and_clamp():
    # The first reference grid puts points on a filament's axis and inside
    # its conductor-radius clamp; the single-point view shows both.
    rect = decode(REFERENCE["fields"][0]["paths"][0])
    side = path_of([unpack(rect.packed)[3]])  # x = 0, running along y
    on_axis = Vec3(0.0, 0.004, 0.0)
    assert b_field(side, on_axis) == Vec3.zero()
    inside = b_field(side, Vec3(1e-4, 0.004, 0.0)).norm()
    surface = b_field(side, Vec3(0.5e-3, 0.004, 0.0)).norm()
    assert inside == pytest.approx(surface, rel=1e-12)


def test_point_wrappers_match_grid():
    case = REFERENCE["fields"][1]
    paths = [decode(rows) for rows in case["paths"]]
    xs, ys = np.array(case["xs"][:3]), np.array(case["ys"][:2])
    grid = b_field_grid(paths, xs, ys, case["z"], case["currents"])
    for iy, y in enumerate(ys):
        for ix, x in enumerate(xs):
            point = Vec3(float(x), float(y), case["z"])
            total = np.zeros(3)
            for path, current in zip(paths, case["currents"], strict=True):
                total += b_field(path, point, current).as_array()
            np.testing.assert_allclose(grid[iy, ix], total, rtol=RTOL, atol=1e-20)


def test_single_pair_wrapper_matches_batch():
    fils = unpack(decode(REFERENCE["paths"][-1]["filaments"]).packed)
    i, j = np.triu_indices(len(fils), 1)
    batch = mutual_inductance_pairs(pack(fils), i, j)
    single = [pair_mutual(fils[a], fils[b]) for a, b in zip(i, j, strict=True)]
    np.testing.assert_allclose(batch, single, rtol=RTOL, atol=0.0)
