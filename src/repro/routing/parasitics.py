"""Trace parasitics: route inductance and trace-level field models.

Closes the paper's loop between layout and circuit for the *connecting
structures*: a route's partial inductance enters the EMI circuit as a
series "inductance of lines" (section 2 of the paper), and the route's
filament model can be coupled magnetically against component loops.
"""

from __future__ import annotations

from ..peec import (
    CurrentPath,
    PackedFilaments,
    mutual_inductance_paths_fast,
    self_inductance_bar,
)
from .router import DEFAULT_COPPER_THICKNESS, Route

__all__ = [
    "route_inductance",
    "route_current_path",
    "route_mutual_inductance",
    "via_inductance",
    "INDUCTANCE_PER_LENGTH_ESTIMATE",
]

#: Rule-of-thumb trace inductance per length for sanity checks [H/m].
INDUCTANCE_PER_LENGTH_ESTIMATE = 0.7e-6  # ~0.7 nH/mm


def route_inductance(
    route: Route, copper_thickness: float = DEFAULT_COPPER_THICKNESS
) -> float:
    """Partial inductance of a route [H]: sum of segment partials.

    Mutual terms between the (mostly perpendicular) L-bend legs are
    neglected — perpendicular segments do not couple at all, and collinear
    same-net segments add a few percent that is far below the modelling
    budget.
    """
    total = 0.0
    for segment in route.segments:
        if segment.length < 1e-9:
            continue
        total += self_inductance_bar(segment.length, segment.width, copper_thickness)
    return total


def route_current_path(
    route: Route,
    z: float = 0.0,
    copper_thickness: float = DEFAULT_COPPER_THICKNESS,
) -> CurrentPath | None:
    """The filament model of a route for field coupling (None when empty).

    One unit-weight filament per segment longer than 1 nm, at height ``z``.

    Raises:
        ValueError: for a non-positive segment width or copper thickness.
    """
    segments = [segment for segment in route.segments if segment.length > 1e-9]
    if not segments:
        return None
    packed = PackedFilaments.segments(
        [(s.start.x, s.start.y, z) for s in segments],
        [(s.end.x, s.end.y, z) for s in segments],
        [s.width for s in segments],
        copper_thickness,
    )
    return CurrentPath(packed, name=f"trace:{route.net}")


def via_inductance(height: float = 1.6e-3, diameter: float = 0.4e-3) -> float:
    """Partial inductance of a plated through-hole via [H].

    The standard approximation ``L = (mu0 h / 2 pi) (ln(4h/d) + 1)`` — about
    1.2 nH for a 1.6 mm board with a 0.4 mm barrel.  The paper's Fig. 11
    PEEC model explicitly includes vias; layer changes on a route add one
    of these per transition.

    Raises:
        ValueError: for non-positive dimensions.
    """
    import math

    from ..peec import MU0

    if height <= 0.0 or diameter <= 0.0:
        raise ValueError("via dimensions must be positive")
    return MU0 * height / (2.0 * math.pi) * (math.log(4.0 * height / diameter) + 1.0)


def route_mutual_inductance(route_a: Route, route_b: Route, z: float = 0.0) -> float:
    """Mutual inductance between two routes' copper [H] (0 when empty)."""
    path_a = route_current_path(route_a, z)
    path_b = route_current_path(route_b, z)
    if path_a is None or path_b is None:
        return 0.0
    return mutual_inductance_paths_fast(path_a, path_b)
