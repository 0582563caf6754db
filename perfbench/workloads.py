"""The three workloads: seeded inputs, the timed op, invariants, reference records.

Each workload is a fixed, seed-determined sequence of ops of one kind:

* ``extract_cold`` — all-pairs PEEC coupling of a random placed board on a
  fresh memory-only database, one coarse field map and one polarised
  CM-choke coupling (``peec`` + ``coupling`` only);
* ``place_drc`` — automatic placement of a random ruled board followed by
  a fixed script of interactive moves with online DRC (``placement`` only;
  rules are inputs, so no field solve and no MNA);
* ``flow_warm`` — one buck-design variant through the staged design flow
  against a persistent coupling cache filled during set-up (sensitivity /
  MNA and placement dominate; ``coupling`` reads the cache).

Every op builds its parts from a plain spec, so no cached geometry carries
over between ops or passes, and every pass costs the same.  Calls into a
layer's public functions are wrapped in ``bench``-side spans (no-ops while
tracing is off); :mod:`layers` turns them into per-layer metrics.
"""

from __future__ import annotations

import itertools
import math
import random
import traceback
from pathlib import Path
from typing import Any

import numpy as np

from repro import obs
from repro.components import (
    BobbinChoke,
    Capacitor,
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
from repro.converters import BuckConverterDesign
from repro.core import EmiDesignFlow
from repro.coupling import CouplingDatabase, component_coupling, polarized_coupling
from repro.geometry import Cuboid, Placement2D, Polygon2D, Rect, Vec2
from repro.peec import field_magnitude_map
from repro.placement import (
    AutoPlacer,
    Board,
    DesignRuleChecker,
    InteractiveSession,
    Keepout3D,
    PlacedComponent,
    PlacementProblem,
    total_wirelength,
)
from repro.rules import MinDistanceRule, RuleSet

#: Seed whose inputs the committed reference outputs describe.  Every run
#: re-computes the first few of these inputs and compares, whatever its
#: own ``--seed``, so the quality metrics repeat exactly across seeds.
REFERENCE_SEED = 1

#: Slack on |k| <= 1 (the coupling layer's own clamp tolerance is larger).
K_TOL = 1e-9


def span(name: str):
    """A span on the active tracer (a shared no-op while tracing is off)."""
    return obs.get_tracer().span(name)


def count(name: str, n: float) -> None:
    obs.get_tracer().count(name, n)


def _rng(workload: str, seed: int, index: int) -> random.Random:
    # String seeds hash deterministically (SHA-512), independent of
    # PYTHONHASHSEED.
    return random.Random(f"{workload}:{seed}:{index}")


def _pose_dict(placement: Placement2D) -> list[float]:
    return [placement.position.x, placement.position.y, placement.rotation_deg]


# -- part specs -------------------------------------------------------------

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


def build_part(spec: dict[str, Any]):
    """A fresh library part from ``{"kind": ..., **constructor kwargs}``."""
    kwargs = {k: v for k, v in spec.items() if k != "kind"}
    return _KINDS[spec["kind"]](**kwargs)


def _bobbin_spec(rng: random.Random, refdes: str, orientations: tuple[str, ...]) -> dict:
    radius = rng.uniform(2.5e-3, 4.5e-3)
    length = rng.uniform(5e-3, 9e-3)
    orientation = rng.choice(orientations)
    width = length + 4e-3 if orientation == "horizontal" else 2 * radius + 2e-3
    return {
        "kind": "bobbin",
        "part_number": f"{refdes}-CHOKE",
        "turns": rng.randint(10, 25),
        "coil_radius": radius,
        "coil_length": length,
        "n_rings": 4,
        "orientation": orientation,
        "footprint_w": width,
        "footprint_h": 2 * radius + 2e-3,
        "body_height": 2 * radius + 3e-3,
    }


# -- extract_cold -------------------------------------------------------------

#: Fixed board composition (cost depends on filament counts, so a fixed mix
#: keeps op cost steady across seeds; geometry and poses are random).
_EXTRACT_MIX = ("cmc",) + ("bobbin",) * 3 + ("x2",) * 4 + ("mlcc",) * 8
_EXTRACT_AREA = (0.12, 0.09)  # board extent [m]
_FIELD_GRID = (7, 5)  # coarse field map, points along x and y
_FIELD_PARTS = 2  # strongest parts in the field map


def _extract_board(seed: int, index: int) -> dict:
    rng = _rng("extract_cold", seed, index)
    parts: list[dict] = []
    for i, kind in enumerate(_EXTRACT_MIX):
        refdes = f"{kind.upper()}{i + 1:02d}"
        if kind == "cmc":
            spec = {
                "kind": "cmc",
                "part_number": f"{refdes}-CMC",
                "major_radius": rng.uniform(8e-3, 11e-3),
                "minor_radius": rng.uniform(3e-3, 4e-3),
                "turns_per_winding": rng.randint(6, 14),
                "rings_per_winding": 3,
            }
        elif kind == "bobbin":
            spec = _bobbin_spec(rng, refdes, ("horizontal", "vertical"))
        elif kind == "x2":
            spec = {
                "kind": "x2",
                "part_number": f"{refdes}-X2",
                "loop_span": rng.uniform(12e-3, 16e-3),
                "loop_height": rng.uniform(8e-3, 11e-3),
            }
        else:
            spec = {"kind": "mlcc", "part_number": f"{refdes}-MLCC"}
        parts.append({"refdes": refdes, "spec": spec})

    # Irregular non-overlapping poses: rejection-sample discs of the parts'
    # circumscribed radius plus 1 mm, continuous rotations.
    placed: list[tuple[float, float, float]] = []
    for part in parts:
        comp = build_part(part["spec"])
        radius = comp.max_extent() / 2.0 + 1e-3
        for _ in range(10_000):
            x = rng.uniform(radius, _EXTRACT_AREA[0] - radius)
            y = rng.uniform(radius, _EXTRACT_AREA[1] - radius)
            if all(math.hypot(x - px, y - py) >= radius + pr for px, py, pr in placed):
                break
        else:  # pragma: no cover - the area is sized generously
            raise RuntimeError("could not place extract_cold part")
        placed.append((x, y, radius))
        part["pose"] = [x, y, rng.uniform(0.0, 360.0)]
    return {"index": index, "parts": parts}


def _strength(comp) -> float:
    return comp.current_path.magnetic_moment().norm() * comp.mu_eff


class _Stateless:
    """Set-up for workloads whose ops share no state: one untimed warm-up op
    (quadrature tables, ufunc dispatch), its output discarded."""

    def setup(self, inputs: list[dict], scratch: Path) -> dict:
        self.op({}, inputs[0])
        return {}

    def reference_state(self, scratch: Path) -> dict:
        return {}


class ExtractCold(_Stateless):
    name = "extract_cold"
    ops_per_pass = 8
    pass_seconds = 4.0  # nominal, at the reference probe time (run.py)
    reference_ops = 3
    setup_reps = 3

    def make_inputs(self, seed: int, n: int | None = None) -> list[dict]:
        return [_extract_board(seed, i) for i in range(n or self.ops_per_pass)]

    def op(self, state: dict, board: dict) -> dict:
        with span("components.build"):
            placed = []
            for part in board["parts"]:
                x, y, rot = part["pose"]
                placed.append(
                    (part["refdes"], build_part(part["spec"]), Placement2D(Vec2(x, y), math.radians(rot)))
                )
        with span("coupling.pairwise"):
            couplings = CouplingDatabase().pairwise_couplings(placed)
        count("bench.coupling_pairs", len(couplings))

        strongest = sorted(placed, key=lambda p: _strength(p[1]), reverse=True)[:_FIELD_PARTS]
        xs = np.array([p[2].position.x for p in strongest])
        ys = np.array([p[2].position.y for p in strongest])
        gx = np.linspace(xs.min() - 0.01, xs.max() + 0.01, _FIELD_GRID[0])
        gy = np.linspace(ys.min() - 0.01, ys.max() + 0.01, _FIELD_GRID[1])
        with span("peec.field_map"):
            field = field_magnitude_map(
                [c.placed_current_path(p) for _, c, p in strongest], gx, gy, z=3e-3
            )
        count("bench.field_points", field.size)

        _, choke, choke_pl = next(p for p in placed if isinstance(p[1], CommonModeChoke))
        victim = min(
            (p for p in placed if isinstance(p[1], Capacitor)),
            key=lambda p: p[2].position.distance_to(choke_pl.position),
        )
        with span("coupling.polarized"):
            polarized = polarized_coupling(choke, choke_pl, victim[1], victim[2])
        return {
            "placed": placed,
            "couplings": couplings,
            "field": field,
            "polarized": polarized,
            "victim": victim[0],
        }

    def check(self, board: dict, out: dict) -> list[str]:
        problems: list[str] = []
        placed, couplings = out["placed"], out["couplings"]
        n = len(placed)
        if len(couplings) != n * (n - 1) // 2:
            problems.append(f"{len(couplings)} couplings for {n} parts")
        for pair, result in couplings.items():
            if not (math.isfinite(result.k) and abs(result.k) <= 1.0 + K_TOL):
                problems.append(f"|k| > 1 for {pair}: {result.k}")
            if not (result.self_a_h > 0.0 and result.self_b_h > 0.0):
                problems.append(f"non-positive self inductance for {pair}")
        # M_ab = M_ba: re-solve the strongest pair with the roles swapped.
        by_ref = {ref: (comp, pl) for ref, comp, pl in placed}
        (ref_a, ref_b), forward = max(couplings.items(), key=lambda kv: abs(kv[1].k))
        comp_a, pl_a = by_ref[ref_a]
        comp_b, pl_b = by_ref[ref_b]
        backward = component_coupling(comp_b, pl_b, comp_a, pl_a)
        if not math.isclose(forward.mutual_h, backward.mutual_h, rel_tol=1e-9, abs_tol=1e-21):
            problems.append(
                f"M_ab != M_ba for {ref_a}/{ref_b}: {forward.mutual_h} vs {backward.mutual_h}"
            )
        field = out["field"]
        if not (np.all(np.isfinite(field)) and np.all(field >= 0.0) and field.max() > 0.0):
            problems.append("field map not finite and positive")
        pol = out["polarized"]
        if not (0.0 <= pol.k_min <= pol.k_max + K_TOL and pol.k_max <= 1.0 + K_TOL):
            problems.append(f"polarized coupling out of range: {pol}")
        return problems

    def record(self, board: dict, out: dict) -> dict:
        return {
            "k": {f"{a}|{b}": r.k for (a, b), r in out["couplings"].items()},
            "field_peak_t": float(out["field"].max()),
            "polarized": [out["polarized"].k_max, out["polarized"].k_min],
            "victim": out["victim"],
        }

    def compare(self, got: dict, ref: dict) -> tuple[list[str], dict[str, float]]:
        problems: list[str] = []
        if set(got["k"]) != set(ref["k"]):
            return ["coupling pair set differs from the reference"], {}
        # Relative to |k|, floored at 1e-6 (perpendicular pairs sit near 0).
        err = max(
            _rel_err(got["polarized"][0], ref["polarized"][0]),
            *(_rel_err(got["k"][p], ref["k"][p]) for p in ref["k"]),
        )
        if err > 1e-6:
            problems.append(f"couplings deviate from the reference by {err:.3g} (rel)")
        if not math.isclose(got["field_peak_t"], ref["field_peak_t"], rel_tol=1e-6):
            problems.append(f"field-map peak {got['field_peak_t']} != {ref['field_peak_t']} T")
        if got["victim"] != ref["victim"]:
            problems.append("polarized-coupling victim differs from the reference")
        return problems, {"k_err_rel_max": err}

    def quality(self, records: list[dict], errs: list[dict]) -> dict[str, float]:
        return {"k_err_rel_max": max((e.get("k_err_rel_max", 0.0) for e in errs), default=0.0)}


def _rel_err(got: float, ref: float) -> float:
    return abs(got - ref) / max(abs(ref), 1e-6)


# -- place_drc ------------------------------------------------------------------

#: Parts per board along one pass (29 is the paper's demo board).  An odd
#: count of boards keeps the median op inside one size class.
_PLACE_SIZES = (16, 24, 29)
_OTHERS = ("fet", "diode", "shunt", "ic", "res", "conn", "fet", "res", "diode", "res")
_MOVES = 3  # scripted interactive moves per op (each a move_to + rotate_to)


def _place_mix(n: int) -> list[str]:
    mix = (
        ["bobbin"] * max(2, round(0.14 * n))
        + ["x2"] * round(0.2 * n)
        + ["elko"] * round(0.1 * n)
        + ["tant"] * round(0.14 * n)
        + ["mlcc"] * round(0.14 * n)
    )
    mix += [_OTHERS[i % len(_OTHERS)] for i in range(n - len(mix))]
    return mix[:n]


def _place_board(seed: int, index: int) -> dict:
    rng = _rng("place_drc", seed, index)
    n = _PLACE_SIZES[index % len(_PLACE_SIZES)]
    parts = []
    for i, kind in enumerate(_place_mix(n)):
        refdes = f"{kind.upper()}{i + 1:02d}"
        if kind == "bobbin":
            spec = _bobbin_spec(rng, refdes, ("horizontal",))
        else:
            spec = {"kind": kind, "part_number": f"{refdes}-{kind.upper()}"}
        parts.append({"refdes": refdes, "spec": spec})
    refs = [p["refdes"] for p in parts]

    # Same density as the demo board (29 parts on 100 x 80 mm).
    width = math.sqrt(n * 276e-6 * 1.25)
    height = width / 1.25

    order = refs[:]
    rng.shuffle(order)
    chain = order[: n // 2]
    nets = [[chain[i], chain[i + 1]] for i in range(len(chain) - 1)]
    nets.append(order[n // 2 : n // 2 + 4])
    nets.append(order[n // 2 + 4 : n // 2 + 7])
    cut = [0, 5, 11, 16]
    groups = [order[cut[i] : cut[i + 1]] for i in range(3)]

    comps = {p["refdes"]: build_part(p["spec"]) for p in parts}
    strength = {ref: _strength(comps[ref]) for ref in refs}
    ranked = sorted(refs, key=lambda r: strength[r], reverse=True)
    # Strongest-field pairs first, PEMD as on the demo board, jittered.
    rules = []
    for a, b in itertools.islice(itertools.combinations(ranked, 2), round(3.4 * n)):
        pemd = min(0.032, max(0.006, 0.012 + 4.0 * min(strength[a], strength[b])))
        rules.append([a, b, pemd * rng.uniform(0.85, 1.15)])

    kw, kh = 0.012, 0.010
    kx = rng.uniform(0.2, 0.8) * (width - kw)
    ky = rng.uniform(0.2, 0.8) * (height - kh)
    keepout = [kx, ky, kx + kw, ky + kh, rng.choice([0.0, 4e-3]), 0.03]

    moves = []
    for _ in range(_MOVES):
        moves.append(
            [
                rng.choice(refs),
                rng.uniform(0.1, 0.9) * width,
                rng.uniform(0.1, 0.9) * height,
                rng.choice([0.0, 90.0, 180.0, 270.0]),
            ]
        )
    return {
        "index": index,
        "size": [width, height],
        "parts": parts,
        "nets": nets,
        "groups": groups,
        "rules": rules,
        "keepout": keepout,
        "moves": moves,
    }


def _place_problem(board: dict) -> PlacementProblem:
    width, height = board["size"]
    x0, y0, x1, y1, z0, z1 = board["keepout"]
    problem = PlacementProblem(
        [
            Board(
                0,
                Polygon2D.rectangle(0.0, 0.0, width, height),
                keepouts=[Keepout3D("K1", Cuboid(Rect(x0, y0, x1, y1), z0, z1))],
            )
        ]
    )
    for part in board["parts"]:
        problem.add_component(PlacedComponent(part["refdes"], build_part(part["spec"])))
    for i, refs in enumerate(board["nets"]):
        problem.add_net(f"N{i + 1}", [(ref, "1") for ref in refs])
    for i, members in enumerate(board["groups"]):
        problem.define_group(f"G{i + 1}", members)
    problem.rules = RuleSet(
        min_distance=[MinDistanceRule(a, b, pemd=pemd, source="bench") for a, b, pemd in board["rules"]]
    )
    return problem


class PlaceDrc(_Stateless):
    name = "place_drc"
    ops_per_pass = len(_PLACE_SIZES)
    pass_seconds = 7.0
    reference_ops = 2
    setup_reps = 3

    def make_inputs(self, seed: int, n: int | None = None) -> list[dict]:
        return [_place_board(seed, i) for i in range(n or self.ops_per_pass)]

    def op(self, state: dict, board: dict) -> dict:
        with span("placement.build"):
            problem = _place_problem(board)
        with span("placement.autoplace"):
            report = AutoPlacer(problem).run()
        placed = problem.clone_state()
        session = InteractiveSession(problem)
        verdicts = []
        for ref, x, y, rot in board["moves"]:
            session.select(ref)
            with span("placement.drc_move"):
                moved = session.move_to(Vec2(x, y))
            with span("placement.drc_move"):
                rotated = session.rotate_to(rot)
            verdicts.append([len(moved.violations), len(rotated.violations)])
        count("bench.drc_moves", 2 * len(board["moves"]))
        return {
            "problem": problem,
            "report": report,
            "session": session,
            "placed": placed,
            "verdicts": verdicts,
        }

    def check(self, board: dict, out: dict) -> list[str]:
        problems: list[str] = []
        report, problem, session = out["report"], out["problem"], out["session"]
        if report.placed_count != len(board["parts"]) or report.violations_after:
            problems.append(
                f"placed {report.placed_count}/{len(board['parts'])} "
                f"with {report.violations_after} violations"
            )
        # Undo the scripted moves: the placed layout must come back, legal.
        while session.undo():
            pass
        if problem.clone_state() != out["placed"]:
            problems.append("undo did not restore the placed layout")
        violations = DesignRuleChecker(problem).check_all()
        if violations:
            problems.append(f"{len(violations)} violations after placement: {violations[0].message}")
        return problems

    def record(self, board: dict, out: dict) -> dict:
        return {
            "positions": {ref: _pose_dict(pl) for ref, pl in out["placed"].items()},
            "wirelength_mm": out["report"].wirelength * 1e3,
            "move_violations": out["verdicts"],
        }

    def compare(self, got: dict, ref: dict) -> tuple[list[str], dict[str, float]]:
        problems = _compare_positions(got["positions"], ref["positions"])
        if not math.isclose(got["wirelength_mm"], ref["wirelength_mm"], rel_tol=1e-9):
            problems.append(f"wirelength {got['wirelength_mm']} != {ref['wirelength_mm']} mm")
        if got["move_violations"] != ref["move_violations"]:
            problems.append("online-DRC verdicts differ from the reference")
        return problems, {}

    def quality(self, records: list[dict], errs: list[dict]) -> dict[str, float]:
        return {"wirelength_mm": sum(r["wirelength_mm"] for r in records) / len(records)}


def _compare_positions(got: dict, ref: dict) -> list[str]:
    if set(got) != set(ref):
        return ["placed part set differs from the reference"]
    moved = [
        r
        for r in ref
        if math.dist(got[r][:2], ref[r][:2]) > 1e-6 or abs(got[r][2] - ref[r][2]) > 1e-6
    ]
    return [f"positions differ from the reference for {', '.join(sorted(moved))}"] if moved else []


# -- flow_warm ------------------------------------------------------------------

#: Stratified variants: (switching frequency [Hz], k_threshold) levels,
#: one variant per level and pass.  The seed jitters each level by +-5 % and
#: draws the edge times and load current, so every parameter varies while
#: each position in the pass keeps its cost class across seeds.
_FLOW_LEVELS = ((180e3, 0.014), (230e3, 0.010), (280e3, 0.020), (330e3, 0.012), (400e3, 0.017))


def _flow_variants(seed: int, n: int) -> list[dict]:
    variants = []
    for i in range(n):
        rng = _rng("flow_warm", seed, i)
        fsw, k_threshold = _FLOW_LEVELS[i % len(_FLOW_LEVELS)]
        variants.append(
            {
                "index": i,
                "design": {
                    "switching_frequency": fsw * rng.uniform(0.95, 1.05),
                    "t_rise": rng.uniform(20e-9, 40e-9),
                    "t_fall": rng.uniform(20e-9, 40e-9),
                    "output_current": rng.uniform(2.0, 3.0),
                },
                "k_threshold": k_threshold * rng.uniform(0.95, 1.05),
            }
        )
    return variants


class FlowWarm:
    name = "flow_warm"
    ops_per_pass = len(_FLOW_LEVELS)
    pass_seconds = 9.0
    reference_ops = 2
    setup_reps = 2

    def make_inputs(self, seed: int, n: int | None = None) -> list[dict]:
        return _flow_variants(seed, n or self.ops_per_pass)

    def setup(self, inputs: list[dict], scratch: Path) -> dict:
        # Fill a private persistent coupling cache: one cold pass over the
        # variants computes every pair pose the warm ops will look up.
        state = {"cache_dir": scratch / "coupling-cache"}
        for variant in inputs:
            try:
                self.op(state, variant)
            except Exception:  # the timed passes re-run it and count the failure
                traceback.print_exc()
        return state

    def reference_state(self, scratch: Path) -> dict:
        # A warm cache answers every pose inside a 0.1 mm / 1 degree bucket
        # with the pose solved first, so its results depend on what filled
        # it.  Reference outputs are therefore checked on a fresh cache.
        return {"cache_dir": scratch / "reference-cache"}

    def op(self, state: dict, variant: dict) -> dict:
        with span("core.build"):
            design = BuckConverterDesign(**variant["design"])
            flow = EmiDesignFlow(
                design, k_threshold=variant["k_threshold"], cache_dir=state["cache_dir"]
            )
        with span("core.run_sensitivity"):
            flow.run_sensitivity()
        with span("core.derive_rules"):
            rules = flow.derive_rules()
        with span("core.place_baseline"):
            baseline, _ = flow.place_baseline()
        with span("core.place_optimized"):
            optimized, report = flow.place_optimized()
        with span("core.evaluate"):
            eval_base = flow.evaluate("baseline", baseline)
        with span("core.evaluate"):
            eval_opt = flow.evaluate("optimized", optimized)
        return {
            "rules": rules,
            "report": report,
            "optimized": optimized,
            "baseline_eval": eval_base,
            "optimized_eval": eval_opt,
        }

    def check(self, variant: dict, out: dict) -> list[str]:
        problems: list[str] = []
        if not out["rules"] or not all(math.isfinite(r.pemd) and r.pemd > 0 for r in out["rules"]):
            problems.append("no usable rules derived")
        report = out["report"]
        if report.failed or report.violations_after or out["optimized_eval"].violations:
            problems.append(
                f"optimized layout not legal: {report.violations_after} DRC, "
                f"{out['optimized_eval'].violations} min-distance violations"
            )
        for evaluation in (out["baseline_eval"], out["optimized_eval"]):
            if not np.all(np.isfinite(evaluation.spectrum.values)):
                problems.append(f"{evaluation.name} spectrum not finite")
            if not math.isfinite(evaluation.worst_margin_db):
                problems.append(f"{evaluation.name} margin not finite")
            bad = [p for p, k in evaluation.couplings.items() if not abs(k) <= 1.0 + K_TOL]
            if bad:
                problems.append(f"{evaluation.name}: |k| > 1 for {bad}")
        return problems

    def record(self, variant: dict, out: dict) -> dict:
        return {
            "rules": [[r.ref_a, r.ref_b, r.pemd] for r in out["rules"]],
            "positions": {
                ref: _pose_dict(c.placement) for ref, c in out["optimized"].components.items()
            },
            "wirelength_mm": total_wirelength(out["optimized"]) * 1e3,
            "margin_baseline_db": out["baseline_eval"].worst_margin_db,
            "margin_optimized_db": out["optimized_eval"].worst_margin_db,
        }

    def compare(self, got: dict, ref: dict) -> tuple[list[str], dict[str, float]]:
        problems = _compare_positions(got["positions"], ref["positions"])
        if [r[:2] for r in got["rules"]] != [r[:2] for r in ref["rules"]] or not all(
            math.isclose(g[2], r[2], rel_tol=1e-6) for g, r in zip(got["rules"], ref["rules"])
        ):
            problems.append("derived rules differ from the reference")
        for key in ("margin_baseline_db", "margin_optimized_db"):
            if abs(got[key] - ref[key]) > 1e-6:
                problems.append(f"{key} {got[key]:.6f} != reference {ref[key]:.6f}")
        if not math.isclose(got["wirelength_mm"], ref["wirelength_mm"], rel_tol=1e-9):
            problems.append(f"wirelength {got['wirelength_mm']} != {ref['wirelength_mm']} mm")
        return problems, {}

    def quality(self, records: list[dict], errs: list[dict]) -> dict[str, float]:
        n = len(records)
        return {
            "emi_margin_db": sum(r["margin_optimized_db"] for r in records) / n,
            "wirelength_mm": sum(r["wirelength_mm"] for r in records) / n,
        }


WORKLOADS = {w.name: w for w in (ExtractCold(), PlaceDrc(), FlowWarm())}
