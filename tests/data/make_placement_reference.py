"""Generate ``placement_reference.json`` — the placer equivalence fixture.

The committed JSON records what the automatic placer chose (centre and
rotation of every part) as it stood at commit 1ac3989, when
``AutoPlacer._best_candidate`` still scored each candidate in a Python loop
and ``Component`` recomputed its magnetic axis on every call.
``tests/test_placement_reference.py`` replays every case with the current
code and requires exact equality.  Regenerating it with the current code
would turn that check into a tautology, so only do so when the placement
heuristic changes on purpose::

    PYTHONPATH=src python tests/data/make_placement_reference.py

Cases:

* ``fig09``: ``build_demo_board()`` (29 devices, 100 rules, 3 groups);
* ``fig16``: the buck board of ``BuckConverterDesign`` with the rule set
  ``EmiDesignFlow.derive_rules`` gives it (stored, so replaying needs no
  field solve);
* ``scaling_<n>``: ``benchmarks/bench_scaling_placer.build_problem(n)``;
* ``random_<i>``: seeded random boards, stored as plain specs: rectangular,
  L-shaped, octagonal and two-area outlines, ``allowed_areas`` and
  ``preferred_area``, keepouts starting at 0 and at 4 mm, fixed parts,
  preferred and restricted rotations.  Some run without the rotation step
  or with the rules ignored (the baseline engine); every successful one is
  followed by one ``refine_wirelength`` pass.  A board the placer cannot
  finish records the error and the partial layout.

This module is also the replay harness: the test imports ``replay`` from it.
"""

from __future__ import annotations

import importlib.util
import json
import math
import random
from pathlib import Path
from typing import Any

from repro import obs
from repro.components import (
    BobbinChoke,
    CeramicCapacitor,
    ChipResistor,
    CommonModeChoke,
    Connector,
    ControllerIC,
    ElectrolyticCapacitor,
    FilmCapacitorX2,
    PowerDiode,
    PowerMosfet,
    ShuntResistor,
    TantalumCapacitorSMD,
)
from repro.converters import BuckConverterDesign, build_demo_board
from repro.geometry import Cuboid, Placement2D, Polygon2D, Rect, Vec2
from repro.placement import (
    AutoPlacer,
    Board,
    Keepout3D,
    PlacedComponent,
    PlacementArea,
    PlacementError,
    PlacementProblem,
    refine_wirelength,
)
from repro.rules import MinDistanceRule, RuleSet

OUT = Path(__file__).with_name("placement_reference.json")
ROOT = Path(__file__).resolve().parents[2]
SCALING_SIZES = (8, 16, 24, 32, 48)
RANDOM_BOARDS = 24

_KINDS = {
    "x2": FilmCapacitorX2,
    "mlcc": CeramicCapacitor,
    "elko": ElectrolyticCapacitor,
    "tant": TantalumCapacitorSMD,
    "bobbin": BobbinChoke,
    "cmc": CommonModeChoke,
    "fet": PowerMosfet,
    "diode": PowerDiode,
    "shunt": ShuntResistor,
    "ic": ControllerIC,
    "res": ChipResistor,
    "conn": Connector,
}
_WEIGHTED_KINDS = (
    "x2", "x2", "mlcc", "mlcc", "mlcc", "elko", "tant", "bobbin", "bobbin",
    "cmc", "fet", "diode", "shunt", "ic", "res", "res", "conn",
)


def _scaling_module():
    path = ROOT / "benchmarks" / "bench_scaling_placer.py"
    spec = importlib.util.spec_from_file_location("bench_scaling_placer", path)
    assert spec is not None and spec.loader is not None
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


# -- random board specs ---------------------------------------------------------


def _part_spec(rng: random.Random, kind: str, refdes: str) -> dict[str, Any]:
    spec: dict[str, Any] = {"kind": kind, "part_number": f"{refdes}-{kind.upper()}"}
    if kind == "bobbin":
        radius = rng.uniform(2.5e-3, 4.5e-3)
        length = rng.uniform(5e-3, 9e-3)
        orientation = rng.choice(("horizontal", "horizontal", "vertical"))
        spec.update(
            turns=rng.randint(10, 25),
            coil_radius=radius,
            coil_length=length,
            n_rings=3,
            orientation=orientation,
            footprint_w=length + 4e-3 if orientation == "horizontal" else 2 * radius + 2e-3,
            footprint_h=2 * radius + 2e-3,
            body_height=2 * radius + 3e-3,
        )
    if kind == "cmc":
        spec["n_windings"] = rng.choice((2, 3))
    return spec


def _outline(rng: random.Random, shape: str, w: float, h: float) -> dict[str, Any]:
    """Board outline plus named areas, as vertex lists."""
    rect = [[0.0, 0.0], [w, 0.0], [w, h], [0.0, h]]
    if shape == "rect":
        return {"outline": rect, "areas": []}
    if shape == "L":
        cx, cy = w * rng.uniform(0.5, 0.65), h * rng.uniform(0.45, 0.6)
        poly = [[0.0, 0.0], [w, 0.0], [w, cy], [cx, cy], [cx, h], [0.0, h]]
        return {"outline": rect, "areas": [{"name": "L", "polygon": poly}]}
    if shape == "octagon":
        r = 0.5 * max(w, h) * 1.08
        angles = [2 * math.pi * (i + 0.5) / 8 for i in range(8)]
        poly = [[r + r * math.cos(a), r + r * math.sin(a)] for a in angles]
        outline = [[0.0, 0.0], [2 * r, 0.0], [2 * r, 2 * r], [0.0, 2 * r]]
        return {"outline": outline, "areas": [{"name": "round", "polygon": poly}]}
    # Two areas split by a 4 mm gap; the right one is a concave notch shape.
    split = w * rng.uniform(0.4, 0.55)
    gap = 4e-3
    left = [[0.0, 0.0], [split, 0.0], [split, h], [0.0, h]]
    x0 = split + gap
    notch = h * rng.uniform(0.3, 0.5)
    right = [
        [x0, 0.0], [w, 0.0], [w, h], [x0 + 0.5 * (w - x0), h],
        [x0 + 0.5 * (w - x0), h - notch], [x0 + 0.25 * (w - x0), h - notch],
        [x0 + 0.25 * (w - x0), h], [x0, h],
    ]
    return {
        "outline": rect,
        "areas": [{"name": "left", "polygon": left}, {"name": "right", "polygon": right}],
    }


def random_board(index: int) -> dict[str, Any]:
    """A seeded random board spec (JSON-serialisable)."""
    rng = random.Random(f"placement-reference:{index}")
    n = rng.randint(8, 20)
    kinds = [rng.choice(_WEIGHTED_KINDS) for _ in range(n)]
    parts = []
    for i, kind in enumerate(kinds):
        refdes = f"{kind.upper()}{i + 1:02d}"
        part: dict[str, Any] = {"refdes": refdes, "spec": _part_spec(rng, kind, refdes)}
        if rng.random() < 0.15:
            part["preferred_rotation_deg"] = rng.choice((90.0, 180.0, 270.0))
        if rng.random() < 0.1:
            part["allowed_rotations_deg"] = [0.0, 180.0]
        parts.append(part)
    refs = [p["refdes"] for p in parts]

    shape = ("rect", "L", "octagon", "two_areas")[index % 4]
    density = rng.uniform(1.5, 2.2) * (1.3 if shape == "L" else 1.0)
    width = math.sqrt(n * 276e-6 * density * 1.25)
    height = width / 1.25
    geometry = _outline(rng, shape, width, height)
    area_names = [a["name"] for a in geometry["areas"]]
    if len(area_names) == 2:
        for part in parts:
            roll = rng.random()
            if roll < 0.3:
                part["allowed_areas"] = [rng.choice(area_names)]
            elif roll < 0.5:
                part["preferred_area"] = rng.choice(area_names)

    xs = [v[0] for v in geometry["outline"]]
    ys = [v[1] for v in geometry["outline"]]
    bw, bh = max(xs) - min(xs), max(ys) - min(ys)
    keepouts = []
    for k in range(rng.choice((1, 2))):
        kw, kh = rng.uniform(6e-3, 12e-3), rng.uniform(5e-3, 10e-3)
        kx = rng.uniform(0.15, 0.85) * (bw - kw)
        ky = rng.uniform(0.15, 0.85) * (bh - kh)
        z0 = (0.0, 4e-3)[(index + k) % 2]
        keepouts.append([kx, ky, kx + kw, ky + kh, z0, 0.03])

    # One or two preplaced parts near the outline's centre band.
    fixed = []
    for ref in rng.sample(refs, rng.choice((0, 1, 2))):
        fixed.append(
            [
                ref,
                rng.uniform(0.25, 0.75) * bw,
                rng.uniform(0.25, 0.75) * bh,
                rng.choice((0.0, 90.0)),
            ]
        )

    order = refs[:]
    rng.shuffle(order)
    nets = []
    for _ in range(rng.randint(n // 2, n)):
        members = rng.sample(refs, rng.choice((2, 2, 3, 4)))
        pins = []
        for ref in members:
            pads = _pad_names(parts, ref)
            pins.append([ref, rng.choice(pads + ["X"])])  # "X": missing pad
        nets.append(pins)
    groups = []
    start = 0
    for _ in range(rng.randint(1, 3)):
        size = rng.randint(2, 4)
        groups.append(order[start : start + size])
        start += size
    rules = []
    pairs = [(a, b) for i, a in enumerate(refs) for b in refs[i + 1 :]]
    for a, b in rng.sample(pairs, min(len(pairs), round(rng.uniform(1.5, 3.0) * n))):
        residual = rng.choice((0.0, 0.0, 0.2))
        rules.append([a, b, rng.uniform(0.006, 0.024), residual])

    mode = rng.choice(("auto", "auto", "auto", "no_rotation", "baseline"))
    return {
        "index": index,
        "mode": mode,
        "geometry": geometry,
        "parts": parts,
        "keepouts": keepouts,
        "fixed": fixed,
        "nets": nets,
        "groups": groups,
        "rules": rules,
    }


def _pad_names(parts: list[dict[str, Any]], ref: str) -> list[str]:
    spec = next(p["spec"] for p in parts if p["refdes"] == ref)
    return [pad.name for pad in build_part(spec).pads]


def build_part(spec: dict[str, Any]):
    """A fresh library part from ``{"kind": ..., **constructor kwargs}``."""
    kwargs = {k: v for k, v in spec.items() if k != "kind"}
    return _KINDS[spec["kind"]](**kwargs)


def _polygon(vertices: list[list[float]]) -> Polygon2D:
    return Polygon2D([Vec2(x, y) for x, y in vertices])


def build_random_problem(spec: dict[str, Any]) -> PlacementProblem:
    """The placement problem a random-board spec describes."""
    geometry = spec["geometry"]
    board = Board(
        0,
        _polygon(geometry["outline"]),
        areas=[PlacementArea(a["name"], _polygon(a["polygon"])) for a in geometry["areas"]],
        keepouts=[
            Keepout3D(f"K{i + 1}", Cuboid(Rect(x0, y0, x1, y1), z0, z1))
            for i, (x0, y0, x1, y1, z0, z1) in enumerate(spec["keepouts"])
        ],
    )
    problem = PlacementProblem([board])
    for part in spec["parts"]:
        rotations = part.get("allowed_rotations_deg")
        problem.add_component(
            PlacedComponent(
                part["refdes"],
                build_part(part["spec"]),
                allowed_areas=tuple(part.get("allowed_areas", ())),
                preferred_area=part.get("preferred_area"),
                allowed_rotations_deg=tuple(rotations) if rotations else None,
                preferred_rotation_deg=part.get("preferred_rotation_deg"),
            )
        )
    for ref, x, y, rot in spec["fixed"]:
        comp = problem.components[ref]
        comp.placement = Placement2D(Vec2(x, y), math.radians(rot))
        comp.fixed = True
    for i, pins in enumerate(spec["nets"]):
        problem.add_net(f"N{i + 1}", [(ref, pad) for ref, pad in pins])
    for i, members in enumerate(spec["groups"]):
        problem.define_group(f"G{i + 1}", members)
    problem.rules = RuleSet(
        min_distance=[
            MinDistanceRule(a, b, pemd=pemd, residual=residual, source="reference")
            for a, b, pemd, residual in spec["rules"]
        ]
    )
    return problem


# -- cases ------------------------------------------------------------------------


def _fig16_rules() -> list[list[Any]]:
    from repro.core import EmiDesignFlow

    flow = EmiDesignFlow(BuckConverterDesign())
    return [
        [r.ref_a, r.ref_b, r.pemd, r.residual, r.k_threshold] for r in flow.derive_rules()
    ]


def _fig16_problem(rules: list[list[Any]]) -> PlacementProblem:
    problem = BuckConverterDesign().placement_problem()
    problem.rules = RuleSet(
        min_distance=[
            MinDistanceRule(a, b, pemd=pemd, residual=residual, k_threshold=k, source="fit")
            for a, b, pemd, residual, k in rules
        ]
    )
    return problem


def _poses(problem: PlacementProblem) -> dict[str, list[float] | None]:
    return {
        ref: None
        if c.placement is None
        else [c.placement.position.x, c.placement.position.y, c.placement.rotation_deg]
        for ref, c in problem.components.items()
    }


def replay(name: str, case: dict[str, Any]) -> dict[str, Any]:
    """Place one case with the current code and return its record."""
    problem: PlacementProblem
    kwargs: dict[str, Any] = {}
    refine = False
    if name == "fig09":
        problem = build_demo_board()
    elif name == "fig16":
        problem = _fig16_problem(case["rules"])
    elif name.startswith("scaling_"):
        problem = _scaling_module().build_problem(case["n"])
    else:
        problem = build_random_problem(case["spec"])
        mode = case["spec"]["mode"]
        kwargs = {
            "optimize_rotation": mode == "auto",
            "respect_min_distance": mode != "baseline",
        }
        refine = True
    previous = obs.get_tracer()
    tracer = obs.enable()
    try:
        out: dict[str, Any] = {"error": None}
        try:
            AutoPlacer(problem, **kwargs).run()
        except PlacementError as exc:
            out["error"] = str(exc)
        out["positions"] = _poses(problem)
        if refine and out["error"] is None:
            refine_wirelength(problem, max_passes=1)
            out["refined"] = _poses(problem)
    finally:
        obs.set_tracer(previous)
    out["candidates_scored"] = tracer.report().totals().get("placement.candidates_scored", 0)
    return out


def make_cases() -> dict[str, dict[str, Any]]:
    """The case inputs (what ``replay`` needs besides its name)."""
    cases: dict[str, dict[str, Any]] = {"fig09": {}, "fig16": {"rules": _fig16_rules()}}
    for n in SCALING_SIZES:
        cases[f"scaling_{n:02d}"] = {"n": n}
    for i in range(RANDOM_BOARDS):
        cases[f"random_{i:02d}"] = {"spec": random_board(i)}
    return cases


def main() -> None:
    cases = make_cases()
    for name, case in cases.items():
        case.update(replay(name, case))
        status = case["error"] or "ok"
        print(f"{name}: {case['candidates_scored']} candidates, {status}")
    # One case per line keeps the fixture diffable without bloating it.
    lines = [f"{json.dumps(k)}: {json.dumps(cases[k], sort_keys=True)}" for k in sorted(cases)]
    OUT.write_text("{\n" + ",\n".join(lines) + "\n}\n")


if __name__ == "__main__":
    main()
