"""Placement quality metrics: wirelength, packing, group coherence.

These are the optimisation criteria the sequential placer scores candidate
locations with, and the numbers the benchmarks report (the interactive
adviser's goal is *"minimization of the system volume"*).
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from itertools import combinations

from ..components import Component
from ..geometry import Rect, Vec2
from .model import Net, PlacedComponent, PlacementProblem

__all__ = [
    "net_hpwl",
    "total_wirelength",
    "placement_bbox",
    "placement_area",
    "group_spread",
    "group_centroid",
    "emd_slack_sum",
]


def pad_offset(component: Component, pad: str) -> Vec2:
    """Local position of a pad; the part's origin when it has no such pad."""
    try:
        return component.pad_position(pad)
    except KeyError:
        return Vec2.zero()


def pin_position(problem: PlacementProblem, refdes: str, pad: str) -> Vec2 | None:
    """Board position of a pin, or None while its part is unplaced."""
    comp = problem.components.get(refdes)
    if comp is None or comp.placement is None:
        return None
    return comp.placement.apply(pad_offset(comp.component, pad))


def net_hpwl(problem: PlacementProblem, net: Net) -> float:
    """Half-perimeter wirelength of a net over its placed pins [m].

    Unplaced pins are skipped; a net with fewer than two placed pins has
    zero length.
    """
    points = [
        p
        for p in (pin_position(problem, ref, pad) for ref, pad in net.pins)
        if p is not None
    ]
    if len(points) < 2:
        return 0.0
    xs = [p.x for p in points]
    ys = [p.y for p in points]
    return (max(xs) - min(xs)) + (max(ys) - min(ys))


def total_wirelength(problem: PlacementProblem) -> float:
    """Sum of HPWL over all nets [m]."""
    return sum(net_hpwl(problem, net) for net in problem.nets)


def placement_bbox(problem: PlacementProblem, board: int | None = None) -> Rect | None:
    """Bounding box of all placed footprints (None if nothing is placed)."""
    rects = [
        c.footprint_aabb()
        for c in problem.placed()
        if board is None or c.board == board
    ]
    if not rects:
        return None
    out = rects[0]
    for r in rects[1:]:
        out = out.union(r)
    return out


def placement_area(problem: PlacementProblem, board: int | None = None) -> float:
    """Area of the placement bounding box [m^2] (the "system volume" proxy)."""
    box = placement_bbox(problem, board)
    return box.area() if box is not None else 0.0


def member_centroid(members: Sequence[PlacedComponent]) -> Vec2 | None:
    """Mean centre of placed components; None for none."""
    if not members:
        return None
    sx = sum(c.center().x for c in members)
    sy = sum(c.center().y for c in members)
    return Vec2(sx / len(members), sy / len(members))


def member_spread(members: Sequence[PlacedComponent]) -> float:
    """Diameter of the placed components' centre point set [m]."""
    centers = [c.center() for c in members]
    return max((p.distance_to(q) for p, q in combinations(centers, 2)), default=0.0)


def group_centroid(problem: PlacementProblem, group: str) -> Vec2 | None:
    """Mean position of a group's placed members."""
    return member_centroid([c for c in problem.group_members(group) if c.is_placed])


def group_spread(problem: PlacementProblem, group: str) -> float:
    """Diameter of the group's member-centre point set [m]."""
    return member_spread([c for c in problem.group_members(group) if c.is_placed])


def emd_slack_sum(problem: PlacementProblem) -> float:
    """Total shortfall of min-distance rules [m]; 0 for a rule-clean layout.

    For each applicable PEMD rule (``PlacementProblem.rule_distances``),
    accumulates ``max(0, EMD - actual_distance)``.
    """
    return sum((max(0.0, emd - actual) for _r, emd, actual, _m in problem.rule_distances()), 0.0)


def worst_emd_margin(problem: PlacementProblem) -> float:
    """Smallest (actual - EMD) over all applicable rules [m]; +inf if none."""
    return min(
        (actual - emd for _r, emd, actual, _m in problem.rule_distances()), default=math.inf
    )
