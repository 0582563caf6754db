"""Generate ``peec_kernel_reference.json`` — the PEEC kernel equivalence fixture.

The committed JSON records the outputs of the scalar per-filament-pair
``loop_self_inductance`` loop and the per-point ``b_field_grid`` loop as they
stood at commit f5d5ca8, before both were replaced by broadcast kernels.
``tests/test_peec_kernel_reference.py`` pins the current kernels to it at
rtol 1e-12.  Regenerating it with the current code would turn that check
into a tautology, so only do so when the physics changes on purpose, and
first look at how far the current code moves it::

    PYTHONPATH=src python tests/data/make_peec_kernel_reference.py --diff
    PYTHONPATH=src python tests/data/make_peec_kernel_reference.py

``--diff`` prints every entry that differs from the committed file beyond
the test's rtol 1e-12 (a stored filament row or grid that changed at all),
and writes nothing; it prints nothing when the file still holds.  The
explicit filaments come from the test oracle's :class:`Filament` objects
(``tests/filament_oracle.py``).

Contents (all SI units):

* ``library``: self-L of every library part's local-frame ``current_path``;
* ``paths``: seeded random ring, rectangle and tight-helix paths, stored as
  explicit filaments, with their self-L.  Together they contain parallel,
  perpendicular and near-touching skew filament pairs; the near skew pairs
  subdivide into every reachable ``pieces`` count, 3 to 8 (``pieces_hit``;
  ``longest/gap > 4`` makes ``ceil(longest/gap/2)`` at least 3);
* ``fields``: ``b_field_grid`` vectors on grids that include points on a
  filament's axis (zero field) and inside the conductor-radius clamp.
"""

from __future__ import annotations

import argparse
import json
import math
import random
import re
import sys
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))
from filament_oracle import Filament, path_of, unpack  # noqa: E402

from repro.components import default_library  # noqa: E402
from repro.geometry import Vec3  # noqa: E402
from repro.peec import (  # noqa: E402
    CurrentPath,
    b_field_grid,
    loop_self_inductance,
    rectangle_path,
    ring_path,
)

SEED = 20260417
OUT = Path(__file__).with_name("peec_kernel_reference.json")
#: The tolerance of ``tests/test_peec_kernel_reference.py``.
RTOL = 1e-12


def helix_path(
    radius: float, pitch: float, seg_per_turn: float, turns: float, wire: float, weight: float
) -> CurrentPath:
    """Polygonal helix with a non-integer segment count per turn, so that a
    segment and its neighbour one turn later are skew and nearly touching."""
    step = 2.0 * math.pi / seg_per_turn
    n = max(3, int(turns * seg_per_turn))
    pts = [
        Vec3(
            radius * math.cos(k * step),
            radius * math.sin(k * step),
            pitch * k * step / (2 * math.pi),
        )
        for k in range(n + 1)
    ]
    return path_of(
        [
            Filament(pts[k], pts[k + 1], width=wire, thickness=wire, weight=weight)
            for k in range(n)
        ],
        name="helix",
    )


def pieces_of(f1: Filament, f2: Filament) -> int:
    """Subdivision count the near-field rule assigns a skew pair (1 = none)."""
    cos = f1.direction.dot(f2.direction)
    if abs(abs(cos) - 1.0) < 1e-12 or abs(cos) < 1e-12:
        return 0
    gap = f1.midpoint.distance_to(f2.midpoint)
    longest = max(f1.length, f2.length)
    if gap > 1e-12 and longest / gap > 4.0:
        return min(8, int(math.ceil(longest / gap / 2.0)))
    return 1


def pair_kinds(path: CurrentPath) -> dict[str, int]:
    fils = unpack(path.packed)
    kinds = {"parallel": 0, "perpendicular": 0}
    for i in range(len(fils)):
        for j in range(i + 1, len(fils)):
            cos = fils[i].direction.dot(fils[j].direction)
            if abs(abs(cos) - 1.0) < 1e-12:
                kinds["parallel"] += 1
            elif abs(cos) < 1e-12:
                kinds["perpendicular"] += 1
            else:
                key = f"pieces_{pieces_of(fils[i], fils[j])}"
                kinds[key] = kinds.get(key, 0) + 1
    return kinds


def encode(path: CurrentPath) -> list[list[float]]:
    return [
        [*f.start.as_array(), *f.end.as_array(), f.width, f.thickness, f.weight]
        for f in unpack(path.packed)
    ]


def random_paths(rng: random.Random) -> list[tuple[str, CurrentPath]]:
    out: list[tuple[str, CurrentPath]] = []
    for i in range(4):
        centre = Vec3(rng.uniform(-0.02, 0.02), rng.uniform(-0.02, 0.02), rng.uniform(0, 0.01))
        ring = ring_path(
            centre,
            rng.uniform(0.002, 0.012),
            segments=rng.choice([6, 8, 11, 12, 16, 24]),
            axis=rng.choice("xyz"),
            wire_diameter=rng.uniform(0.2e-3, 1.2e-3),
            weight=rng.choice([1.0, 2.0, 3.5]),
        )
        out.append((f"ring{i}", ring))
    for i in range(3):
        a = Vec3(rng.uniform(-0.01, 0.0), rng.uniform(-0.01, 0.0), rng.uniform(0.0, 0.002))
        span = rng.uniform(0.003, 0.02)
        rise = rng.uniform(0.001, 0.012)
        normal = rng.choice("xyz")
        b = {
            "y": Vec3(a.x + span, a.y, a.z + rise),
            "x": Vec3(a.x, a.y + span, a.z + rise),
            "z": Vec3(a.x + span, a.y + rise, a.z),
        }[normal]
        rect = rectangle_path(
            a,
            b,
            normal=normal,
            width=rng.uniform(0.3e-3, 2e-3),
            thickness=rng.uniform(35e-6, 0.3e-3),
            weight=rng.choice([1.0, 2.0]),
        )
        out.append((f"rect{i}", rect))
    # Tight helices: sweep the segment count per turn and the pitch until the
    # near-field subdivision has been exercised at every count 3..8.
    hit: set[int] = set()
    i = 0
    while not hit >= set(range(3, 9)) or i < 4:
        helix = helix_path(
            radius=rng.uniform(0.003, 0.008),
            pitch=rng.uniform(0.1e-3, 1.5e-3),
            seg_per_turn=rng.choice([4, 5, 6]) + rng.uniform(0.02, 0.3),
            turns=rng.uniform(2.0, 4.0),
            wire=rng.uniform(0.1e-3, 0.5e-3),
            weight=rng.choice([1.0, 1.5]),
        )
        kinds = pair_kinds(helix)
        new = {int(k.split("_")[1]) for k in kinds if k.startswith("pieces_")} - hit
        if new & set(range(3, 9)) or i < 4:
            out.append((f"helix{i}", helix))
            hit |= new
        i += 1
        if i > 500:
            raise RuntimeError(f"helix sweep reached only pieces {sorted(hit)}")
    return out


def field_cases(rng: random.Random) -> list[dict]:
    cases = []
    # A flat rectangle at z = 0 with sides on the grid lines x = 0 and
    # x = 0.01: points on those lines lie on a filament axis (zero field),
    # points 0.1 mm off lie inside the 0.5 mm clamp radius.
    rect = rectangle_path(Vec3(0.0, 0.0, 0.0), Vec3(0.01, 0.008, 0.0), normal="z", width=1e-3)
    xs = np.array([-0.005, 0.0, 1e-4, 0.003, 0.0099, 0.01, 0.015])
    ys = np.array([-0.002, 0.0, 0.004, 0.008, 0.0101])
    cases.append({"paths": [rect], "xs": xs, "ys": ys, "z": 0.0, "currents": [1.0]})
    # A ring plus a helix with their own currents, above and in the plane.
    ring = ring_path(Vec3(0.01, 0.0, 0.002), 0.004, segments=12, axis="x", weight=2.0)
    helix = helix_path(0.004, 0.8e-3, 5.2, 2.5, 0.4e-3, 1.0)
    for z in (0.0, 0.003):
        xs = np.sort(np.append(np.linspace(-0.01, 0.02, 8), [0.004, 0.01]))
        ys = np.sort(np.append(np.linspace(-0.008, 0.008, 6), [0.0]))
        cases.append(
            {
                "paths": [ring, helix],
                "xs": xs,
                "ys": ys,
                "z": z,
                "currents": [rng.uniform(0.5, 2.0), -rng.uniform(0.5, 2.0)],
            }
        )
    return cases


def build() -> dict:
    """The reference as the current code computes it."""
    rng = random.Random(SEED)
    lib = default_library()
    library = {pn: loop_self_inductance(lib.create(pn).current_path) for pn in lib.part_numbers()}

    paths = []
    pieces_hit: set[int] = set()
    for name, path in random_paths(rng):
        kinds = pair_kinds(path)
        pieces_hit |= {int(k.split("_")[1]) for k in kinds if k.startswith("pieces_")}
        paths.append(
            {
                "name": name,
                "filaments": encode(path),
                "pair_kinds": kinds,
                "self_inductance_h": loop_self_inductance(path),
            }
        )
    assert pieces_hit >= set(range(3, 9)), pieces_hit

    fields = []
    for case in field_cases(rng):
        b = b_field_grid(case["paths"], case["xs"], case["ys"], case["z"], case["currents"])
        fields.append(
            {
                "paths": [encode(p) for p in case["paths"]],
                "xs": case["xs"].tolist(),
                "ys": case["ys"].tolist(),
                "z": case["z"],
                "currents": case["currents"],
                "b_t": b.tolist(),
            }
        )

    doc = {
        "schema": "peec-kernel-reference/1",
        "source": "scalar loop_self_inductance and per-point b_field_grid at commit f5d5ca8",
        "filament_columns": [
            "x0", "y0", "z0", "x1", "y1", "z1", "width", "thickness", "weight"
        ],
        "pieces_hit": sorted(pieces_hit),
        "library": library,
        "paths": paths,
        "fields": fields,
    }
    return doc


def beyond(name: str, committed: float, current: float, atol: float = 0.0) -> list[str]:
    """One line if ``current`` differs from ``committed`` beyond ``RTOL``."""
    if abs(current - committed) <= RTOL * abs(committed) + atol:
        return []
    move = abs(current - committed) / abs(committed) if committed else math.inf
    return [f"{name}: {committed!r} -> {current!r} ({move:.2e} relative)"]


def diff(committed: dict, current: dict) -> list[str]:
    """Every entry of ``current`` beyond the test's tolerance of ``committed``."""
    report = []
    for part, value in committed["library"].items():
        report += beyond(f"library[{part}]", value, current["library"].get(part, math.nan))
    if len(current["paths"]) != len(committed["paths"]):
        report.append(f"paths: {len(committed['paths'])} -> {len(current['paths'])} cases")
    for old, new in zip(committed["paths"], current["paths"], strict=False):
        name = old["name"]
        if new["name"] != name or new["filaments"] != old["filaments"]:
            report.append(f"paths[{name}]: filaments changed")
            continue
        report += beyond(f"paths[{name}]", old["self_inductance_h"], new["self_inductance_h"])
    for index, (old, new) in enumerate(zip(committed["fields"], current["fields"], strict=True)):
        if any(new[key] != old[key] for key in ("paths", "xs", "ys", "z", "currents")):
            report.append(f"fields[{index}]: inputs changed")
            continue
        expected, got = np.array(old["b_t"]), np.array(new["b_t"])
        # The test's absolute floor: rounding noise of the grid's field scale.
        atol = RTOL * float(np.abs(expected).max())
        for at in zip(*np.nonzero(np.abs(got - expected) > RTOL * np.abs(expected) + atol)):
            where = f"fields[{index}]{[int(k) for k in at]}"
            report += beyond(where, float(expected[at]), float(got[at]), atol)
    return report


def main(argv: list[str] | None = None) -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--diff",
        action="store_true",
        help="print the entries the current code moves beyond rtol 1e-12; write nothing",
    )
    args = parser.parse_args(argv)
    doc = build()
    if args.diff:
        for line in diff(json.loads(OUT.read_text()), doc):
            print(line)
        return
    text = json.dumps(doc, indent=1)
    # One line per innermost list (a filament row, a field vector).
    text = re.sub(
        r"\[\s+([^\[\]{}]*?)\s+\]", lambda m: "[" + " ".join(m.group(1).split()) + "]", text
    )
    OUT.write_text(text + "\n")
    print(f"wrote {OUT} ({OUT.stat().st_size} bytes)")




if __name__ == "__main__":
    main()
