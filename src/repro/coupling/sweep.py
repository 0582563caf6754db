"""Parameter sweeps of the coupling factor — the paper's Figs. 5–8 engines.

Each sweep varies one placement degree of freedom while holding everything
else fixed:

* :func:`distance_sweep` — centre-to-centre distance at fixed orientations
  (Fig. 5 for capacitors, Fig. 7 for bobbin coils);
* :func:`rotation_sweep` — relative rotation at fixed distance (the Fig. 6
  orthogonality rule and the Fig. 10 cos(alpha) law);
* :func:`angular_position_sweep` — a victim orbiting a source at fixed
  radius (Fig. 8's preferred positions around CM chokes).

Every sweep accepts an optional ``database`` (see docs/PERFORMANCE.md)
that answers points from its cache tiers first and stores fresh solves
for the next run.  The sweep's own ``ground_plane_z`` applies either way;
the database only caches.  Without a database every point is solved, as
one array batch.
"""

from __future__ import annotations

import numpy as np

from ..components import Component
from ..geometry import Placement2D, Vec2
from ..obs import get_tracer
from ..units import Degrees, Meters
from .database import CouplingDatabase, solve_couplings

__all__ = ["distance_sweep", "rotation_sweep", "angular_position_sweep"]


def _validated_distances(distances: np.ndarray) -> np.ndarray:
    """Distance grid checked for the silent-NaN failure modes.

    A NaN or infinite entry sails through a plain ``d <= 0`` test (NaN
    compares false) and used to surface only as NaN couplings much later;
    a non-monotonic grid breaks the power-law fits downstream.  Both are
    rejected here with a clear message instead.

    Args:
        distances: centre-to-centre distances [m].

    Raises:
        ValueError: when empty, non-finite, non-positive or not strictly
            increasing.
    """
    d = np.atleast_1d(np.asarray(distances, dtype=float))
    if d.size == 0:
        raise ValueError("distances must not be empty")
    if not np.all(np.isfinite(d)):
        raise ValueError("distances must be finite (got NaN or infinity)")
    if np.any(d <= 0.0):
        raise ValueError("distances must be strictly positive")
    if d.size > 1 and not np.all(np.diff(d) > 0.0):
        raise ValueError("distances must be strictly increasing")
    return d


def _validated_scalar(value: float, name: str) -> float:
    """A strictly positive, finite scalar length [m], or ValueError."""
    v = float(value)
    if not np.isfinite(v) or v <= 0.0:
        raise ValueError(f"{name} must be finite and positive, got {value!r}")
    return v


def _validated_angles(angles_deg: np.ndarray) -> np.ndarray:
    """A finite angle grid [deg], or ValueError (NaN angles → NaN k)."""
    a = np.atleast_1d(np.asarray(angles_deg, dtype=float))
    if a.size == 0:
        raise ValueError("angles must not be empty")
    if not np.all(np.isfinite(a)):
        raise ValueError("angles must be finite (got NaN or infinity)")
    return a


def _signed_couplings(
    comp_a: Component,
    place_a: Placement2D,
    comp_b: Component,
    placements_b: list[Placement2D],
    ground_plane_z: Meters | None,
    database: CouplingDatabase | None,
) -> np.ndarray:
    """Signed k for component B at each placement, cached if asked.

    The single evaluation engine behind all three sweeps: every point
    goes through ``database.lookup`` when a database is given, and is
    solved directly otherwise; results come back in placement order.
    """
    pairs = [(comp_a, place_a, comp_b, place_b) for place_b in placements_b]
    if database is not None:
        results = database.lookup(pairs, ground_plane_z)
    else:
        results = solve_couplings(pairs, ground_plane_z)
    return np.array([r.k for r in results])


def distance_sweep(
    comp_a: Component,
    comp_b: Component,
    distances: np.ndarray,
    rotation_a_deg: Degrees = 0.0,
    rotation_b_deg: Degrees = 0.0,
    direction_deg: Degrees = 0.0,
    ground_plane_z: Meters | None = None,
    database: CouplingDatabase | None = None,
) -> np.ndarray:
    """|k| versus centre-to-centre distance.

    Component A sits at the origin; B moves along ``direction_deg``.

    Args:
        comp_a, comp_b: the component pair (local-frame field models).
        distances: centre-to-centre distances [m] — strictly positive,
            finite and strictly increasing (non-finite or unsorted grids
            raise instead of silently producing NaN couplings).
        rotation_a_deg, rotation_b_deg: fixed component rotations [deg].
        direction_deg: bearing of B from A [deg].
        ground_plane_z: optional shielding plane height [m].
        database: optional cache tiers consulted/filled per point.

    Returns:
        Unsigned coupling factors, same shape as ``distances``.
    """
    d = _validated_distances(distances)
    tracer = get_tracer()
    with tracer.span("coupling.sweep.distance"):
        tracer.count("coupling.sweep_points", len(d))
        place_a = Placement2D.at(0.0, 0.0, rotation_a_deg)
        direction = Vec2.from_polar(1.0, np.deg2rad(direction_deg))
        placements_b = [
            Placement2D(direction * float(dist), np.deg2rad(rotation_b_deg))
            for dist in d
        ]
        out = np.abs(
            _signed_couplings(
                comp_a, place_a, comp_b, placements_b, ground_plane_z, database
            )
        )
    return out


def rotation_sweep(
    comp_a: Component,
    comp_b: Component,
    distance: Meters,
    angles_deg: np.ndarray,
    rotation_a_deg: Degrees = 0.0,
    ground_plane_z: Meters | None = None,
    database: CouplingDatabase | None = None,
) -> np.ndarray:
    """Signed k versus the rotation of component B at a fixed distance.

    B sits on the +x axis at ``distance``; its rotation sweeps through
    ``angles_deg``.  The cosine shape of the result is what justifies the
    placer's ``EMD = PEMD * |cos(alpha)|`` reduction.

    Args:
        comp_a, comp_b: the component pair (local-frame field models).
        distance: fixed centre-to-centre distance [m], finite and positive.
        angles_deg: rotations of B to evaluate [deg], finite.
        rotation_a_deg: fixed rotation of A [deg].
        ground_plane_z: optional shielding plane height [m].
        database: optional cache tiers consulted/filled per point.
    """
    dist = _validated_scalar(distance, "distance")
    angles = _validated_angles(angles_deg)
    tracer = get_tracer()
    with tracer.span("coupling.sweep.rotation"):
        tracer.count("coupling.sweep_points", len(angles))
        place_a = Placement2D.at(0.0, 0.0, rotation_a_deg)
        placements_b = [Placement2D.at(dist, 0.0, float(ang)) for ang in angles]
        out = _signed_couplings(
            comp_a, place_a, comp_b, placements_b, ground_plane_z, database
        )
    return out


def angular_position_sweep(
    source: Component,
    victim: Component,
    radius: Meters,
    angles_deg: np.ndarray,
    victim_faces_source: bool = True,
    victim_rotation_deg: Degrees = 0.0,
    ground_plane_z: Meters | None = None,
    database: CouplingDatabase | None = None,
) -> np.ndarray:
    """|k| versus the victim's angular position around a fixed source.

    The source sits at the origin (rotation 0).  The victim orbits at
    ``radius``; with ``victim_faces_source`` its own rotation tracks the
    orbit angle (tangential mounting, the natural board layout around a
    choke), otherwise it keeps ``victim_rotation_deg``.

    The Fig. 8 reproduction runs this for the 2- and 3-winding CM chokes:
    the 2-winding curve has deep decoupled minima, the 3-winding one does
    not.

    Args:
        source, victim: the component pair (local-frame field models).
        radius: orbit radius [m], finite and strictly positive (a NaN
            radius used to propagate into NaN couplings; it raises now).
        angles_deg: orbit angles to evaluate [deg], finite.
        victim_faces_source: tie the victim rotation to the orbit angle.
        victim_rotation_deg: fixed victim rotation [deg] when not facing.
        ground_plane_z: optional shielding plane height [m].
        database: optional cache tiers consulted/filled per point.
    """
    r = _validated_scalar(radius, "radius")
    angles = _validated_angles(angles_deg)
    tracer = get_tracer()
    with tracer.span("coupling.sweep.angular_position"):
        tracer.count("coupling.sweep_points", len(angles))
        place_src = Placement2D.at(0.0, 0.0, 0.0)
        placements_vic = []
        for ang in angles:
            pos = Vec2.from_polar(r, np.deg2rad(float(ang)))
            rot = float(ang) + 90.0 if victim_faces_source else victim_rotation_deg
            placements_vic.append(Placement2D(pos, np.deg2rad(rot)))
        out = np.abs(
            _signed_couplings(
                source, place_src, victim, placements_vic, ground_plane_z, database
            )
        )
    return out
