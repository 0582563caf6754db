"""Placement analyzer: boards, keepouts, areas and placement rules.

Checks that the constraint system handed to the placer is satisfiable at
all — preplaced parts inside the board, keepouts that leave room to
place, area constraints that can hold their components, rules that
reference real objects — plus the EMC-coverage rule PLC009: pairs of
strong field sources must carry a PEMD entry, or the placer will pack
them tightly and the layout couples unchecked.

Free-area estimation uses a coarse interior grid of the board outline
(a few hundred points), not exact polygon booleans: the question is "is
there anywhere left to place", not "exactly how much".
"""

from __future__ import annotations

import itertools
import math

from ..components import Component
from ..geometry import Polygon2D
from ..placement import Board, PlacementProblem
from .diagnostics import Diagnostic
from .limits import MIN_FREE_AREA_FRACTION, PEMD_REQUIRED_STRENGTH
from .registry import finding

__all__ = ["check_placement"]

#: Height [m] of the body standing on the board that PLC002/PLC010 test
#: keepouts with: a keepout it would enter blocks every part.
_BOARD_LEVEL_Z = 1e-4

#: Interior sample resolution per board axis for the free-area estimate.
_GRID_STEPS = 24


def check_placement(
    problem: PlacementProblem,
    pemd_strength_threshold: float = PEMD_REQUIRED_STRENGTH,
) -> list[Diagnostic]:
    """Run all PLC0xx rules over a placement problem.

    Args:
        problem: the design under check.
        pemd_strength_threshold: minimum stray-field strength (moment per
            ampere times effective permeability, [m^2]) above which a pair
            of parts must carry a PEMD rule (PLC009).
    """
    out: list[Diagnostic] = []
    out.extend(_preplaced_on_board(problem))
    for board in problem.boards:
        out.extend(_keepout_rules(problem, board))
    out.extend(_area_constraints(problem))
    out.extend(_orphaned_rules(problem))
    out.extend(_unsatisfiable_min_distances(problem))
    out.extend(_missing_pemd_rules(problem, pemd_strength_threshold))
    out.extend(_overfilled_boards(problem))
    return out


# -- PLC001: preplaced parts must sit on the board -------------------------


def _preplaced_on_board(problem: PlacementProblem) -> list[Diagnostic]:
    out: list[Diagnostic] = []
    for comp in problem.components.values():
        if not comp.fixed or not comp.is_placed:
            continue
        try:
            board = problem.board(comp.board)
        except KeyError:
            out.append(
                finding(
                    "PLC001",
                    f"preplaced {comp.refdes} is assigned to missing board "
                    f"{comp.board}",
                    obj=f"problem/component:{comp.refdes}",
                )
            )
            continue
        rect = comp.footprint_aabb()
        if not board.outline.contains_rect(rect.xmin, rect.ymin, rect.xmax, rect.ymax):
            out.append(
                finding(
                    "PLC001",
                    f"preplaced {comp.refdes} at "
                    f"({comp.center().x * 1e3:.1f}, {comp.center().y * 1e3:.1f}) mm "
                    f"extends beyond the board {comp.board} outline",
                    obj=f"problem/component:{comp.refdes}",
                    hint="move the part inside the outline or unfix it",
                )
            )
    return out


# -- PLC002/003/004: keepout sanity ----------------------------------------


def _free_area_fraction(board: Board) -> float:
    """Fraction of interior samples outside all board-level keepouts."""
    xmin, ymin, xmax, ymax = board.outline.bbox()
    spacing = max(xmax - xmin, ymax - ymin) / _GRID_STEPS
    samples = board.outline.grid_samples(spacing)
    if not samples:
        return 1.0
    blockers = [k for k in board.keepouts if k.blocks(0.0, _BOARD_LEVEL_Z)]
    if not blockers:
        return 1.0
    free = sum(
        1
        for p in samples
        if not any(k.cuboid.rect.contains_point(p) for k in blockers)
    )
    return free / len(samples)


def _keepout_rules(problem: PlacementProblem, board: Board) -> list[Diagnostic]:
    out: list[Diagnostic] = []
    for keepout in board.keepouts:
        rect = keepout.cuboid.rect
        if not board.outline.intersects_rect(rect.xmin, rect.ymin, rect.xmax, rect.ymax):
            out.append(
                finding(
                    "PLC003",
                    f"keepout {keepout.name!r} does not intersect the board "
                    f"{board.index} outline",
                    obj=f"problem/keepout:{keepout.name}",
                    hint="check the keepout coordinates (and their units)",
                )
            )
    for a, b in itertools.combinations(board.keepouts, 2):
        inner, outer = (a, b) if a.cuboid.volume() <= b.cuboid.volume() else (b, a)
        ri, ro = inner.cuboid.rect, outer.cuboid.rect
        contained = (
            ro.xmin <= ri.xmin
            and ro.ymin <= ri.ymin
            and ri.xmax <= ro.xmax
            and ri.ymax <= ro.ymax
            and outer.cuboid.zmin <= inner.cuboid.zmin
            and inner.cuboid.zmax <= outer.cuboid.zmax
        )
        if contained:
            out.append(
                finding(
                    "PLC004",
                    f"keepout {inner.name!r} lies entirely inside keepout "
                    f"{outer.name!r}",
                    obj=f"problem/keepout:{inner.name}",
                    hint="remove the redundant keepout",
                )
            )
    free = _free_area_fraction(board)
    if free < MIN_FREE_AREA_FRACTION and any(
        c.board == board.index for c in problem.components.values()
    ):
        out.append(
            finding(
                "PLC002",
                f"keepouts block {100.0 * (1.0 - free):.0f}% of board "
                f"{board.index} — nothing can be placed",
                obj=f"problem/board:{board.index}",
                hint="shrink the keepouts or enlarge the board",
            )
        )
    return out


# -- PLC005/006: area constraints ------------------------------------------


def _fits_in_polygon(
    component: Component, rotations: tuple[float, ...], polygon: Polygon2D
) -> bool:
    xmin, ymin, xmax, ymax = polygon.bbox()
    box_w, box_h = xmax - xmin, ymax - ymin
    for angle_deg in rotations or (0.0,):
        half = component.half_extent(angle_deg)
        if 2.0 * half.x <= box_w and 2.0 * half.y <= box_h:
            return True
    return False


def _area_constraints(problem: PlacementProblem) -> list[Diagnostic]:
    out: list[Diagnostic] = []
    for comp in problem.components.values():
        try:
            board = problem.board(comp.board)
        except KeyError:
            continue  # PLC001 reports missing boards
        area_names = {a.name for a in board.placement_areas()}
        named = set(comp.allowed_areas)
        if comp.preferred_area is not None:
            named.add(comp.preferred_area)
        for name in sorted(named):
            if name not in area_names:
                out.append(
                    finding(
                        "PLC005",
                        f"{comp.refdes} references area {name!r}, which does "
                        f"not exist on board {comp.board}",
                        obj=f"problem/component:{comp.refdes}",
                        hint=f"defined areas: {sorted(area_names)}",
                    )
                )
        preferred = comp.preferred_area
        if (
            preferred in area_names
            and comp.allowed_areas
            and preferred not in comp.allowed_areas
        ):
            out.append(
                finding(
                    "PLC005",
                    f"{comp.refdes} prefers area {preferred!r}, which is not "
                    f"among its allowed areas {list(comp.allowed_areas)}; the "
                    f"placer ignores the preference",
                    obj=f"problem/component:{comp.refdes}",
                    hint="add the preferred area to allowed_areas or drop it",
                )
            )
        rotations = comp.rotations()
        candidates = problem.allowed_areas(comp)
        if (
            comp.allowed_areas
            and candidates
            and not any(
                _fits_in_polygon(comp.component, rotations, a.polygon)
                for a in candidates
            )
        ):
            out.append(
                finding(
                    "PLC006",
                    f"{comp.refdes} ({comp.component.footprint_w * 1e3:.1f}x"
                    f"{comp.component.footprint_h * 1e3:.1f} mm) does not fit "
                    f"any of its allowed areas at any permitted rotation",
                    obj=f"problem/component:{comp.refdes}",
                    hint="enlarge the area or relax the allowed_areas constraint",
                )
            )
    return out


# -- PLC007: rules must reference real objects -----------------------------


def _orphaned_rules(problem: PlacementProblem) -> list[Diagnostic]:
    out: list[Diagnostic] = []
    refs = set(problem.components)
    nets = {n.name for n in problem.nets}

    for rule in problem.rules.min_distance:
        for ref in (rule.ref_a, rule.ref_b):
            if ref not in refs:
                out.append(
                    finding(
                        "PLC007",
                        f"min-distance rule {rule.ref_a}-{rule.ref_b} references "
                        f"unknown component {ref!r}",
                        obj=f"problem/rule:{rule.ref_a}-{rule.ref_b}",
                    )
                )
    for clearance_rule in problem.rules.clearance:
        if clearance_rule.is_global:
            continue
        for ref in (clearance_rule.ref_a, clearance_rule.ref_b):
            if ref and ref not in refs:
                out.append(
                    finding(
                        "PLC007",
                        f"clearance rule {clearance_rule.ref_a or '*'}-"
                        f"{clearance_rule.ref_b or '*'} references unknown "
                        f"component {ref!r}",
                        obj="problem/rule:clearance",
                    )
                )
    for group_rule in problem.rules.groups:
        for member in group_rule.members:
            if member not in refs:
                out.append(
                    finding(
                        "PLC007",
                        f"group rule {group_rule.group!r} references unknown "
                        f"member {member!r}",
                        obj=f"problem/rule:{group_rule.group}",
                    )
                )
    for net_rule in problem.rules.net_lengths:
        if net_rule.net not in nets:
            out.append(
                finding(
                    "PLC007",
                    f"net-length rule references unknown net {net_rule.net!r}",
                    obj=f"problem/rule:{net_rule.net}",
                )
            )
    return out


# -- PLC008: minimum distances must fit the board --------------------------


def _unsatisfiable_min_distances(problem: PlacementProblem) -> list[Diagnostic]:
    out: list[Diagnostic] = []
    diagonals: dict[int, float] = {}
    for board in problem.boards:
        xmin, ymin, xmax, ymax = board.outline.bbox()
        diagonals[board.index] = math.hypot(xmax - xmin, ymax - ymin)
    worst = max(diagonals.values(), default=0.0)
    for rule in problem.rules.min_distance:
        comp_a = problem.components.get(rule.ref_a)
        comp_b = problem.components.get(rule.ref_b)
        if comp_a is None or comp_b is None:
            continue  # PLC007 reports these
        if comp_a.board == comp_b.board:
            limit = diagonals.get(comp_a.board, worst)
        else:
            continue  # parts on different boards: distance rule is inter-board
        if rule.pemd > limit:
            out.append(
                finding(
                    "PLC008",
                    f"rule {rule.ref_a}-{rule.ref_b} demands "
                    f"{rule.pemd * 1e3:.1f} mm, but the board {comp_a.board} "
                    f"diagonal is only {limit * 1e3:.1f} mm",
                    obj=f"problem/rule:{rule.ref_a}-{rule.ref_b}",
                    hint="partition the pair onto two boards or relax the rule",
                )
            )
    return out


# -- PLC009: strong pairs need a PEMD entry --------------------------------


def _field_strength(component: Component) -> float:
    try:
        return component.stray_field_strength if component.field_relevant else 0.0
    except (NotImplementedError, ValueError):
        return 0.0


def _missing_pemd_rules(
    problem: PlacementProblem, strength_threshold: float
) -> list[Diagnostic]:
    strong = [
        (refdes, strength)
        for refdes, comp in sorted(problem.components.items())
        if (strength := _field_strength(comp.component)) >= strength_threshold
    ]
    covered = {rule.pair() for rule in problem.rules.min_distance}
    out: list[Diagnostic] = []
    for (ref_a, strength_a), (ref_b, strength_b) in itertools.combinations(strong, 2):
        pair = tuple(sorted((ref_a, ref_b)))
        if pair in covered:
            continue
        out.append(
            finding(
                "PLC009",
                f"strong field pair {pair[0]}-{pair[1]} (strengths "
                f"{strength_a:.2e}/{strength_b:.2e} m^2) has no minimum-"
                f"distance rule",
                obj=f"problem/pair:{pair[0]}-{pair[1]}",
                hint="derive a PEMD rule (repro-emi rules) or add one manually",
            )
        )
    return out


# -- PLC010: the parts must physically fit ---------------------------------


def _overfilled_boards(problem: PlacementProblem) -> list[Diagnostic]:
    out: list[Diagnostic] = []
    for board in problem.boards:
        parts = [
            c for c in problem.components.values() if c.board == board.index
        ]
        if not parts:
            continue
        demand = sum(p.component.footprint_area() for p in parts)
        supply = board.outline.area() * _free_area_fraction(board)
        if demand > supply:
            out.append(
                finding(
                    "PLC010",
                    f"components assigned to board {board.index} need "
                    f"{demand * 1e4:.1f} cm^2 but only {supply * 1e4:.1f} cm^2 "
                    f"is available",
                    obj=f"problem/board:{board.index}",
                    hint="enlarge the board, shrink keepouts or partition",
                )
            )
    return out
