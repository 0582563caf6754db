"""Effective minimum distance — the paper's ``EMD = PEMD * cos(alpha)``.

Section 4 of the paper: *"The minimum distance rules (PEMD_ij) … are defined
by parallel magnetic axes … This minimum distance is changed by rotation of
the components proportional to the cosine function.  So, the really
effective value of the electrical minimum distance … is computed by
EMD_ij = PEMD_ij * cosine(alpha_ij).  In the case of 90 degree between the
magnetic axes the electrical minimum distance is equal [zero] and the
components can be placed close to each other without any electromagnetic
coupling effects."*

Two refinements keep the rule physical for the full component zoo:

* the angle is taken between the 3-D magnetic axes, so vertical-axis parts
  (whose coupling rotation cannot change) keep their full PEMD against each
  other;
* each component contributes a **decoupling residual** — the fraction of
  the rule that no rotation removes (1 for vertical-axis parts, ~0.6 for
  three-winding CM chokes with their rotating stray fields, 0 for clean
  in-plane dipoles).  The effective reduction factor is
  ``max(|cos(alpha)|, residual_a, residual_b)``.
"""

from __future__ import annotations

import math

from ..components import Component
from ..geometry import Placement2D
from ..units import Dimensionless, Meters, Radians

__all__ = [
    "axis_angle",
    "emd_factor",
    "effective_min_distance",
    "emd_for_pair",
]


def axis_angle(
    comp_a: Component,
    placement_a: Placement2D,
    comp_b: Component,
    placement_b: Placement2D,
) -> Radians:
    """Angle between the magnetic axes of two placed components [rad, 0..pi/2].

    Axes are unsigned (a dipole axis has no preferred sign), so the angle is
    folded into the first quadrant.

    Args:
        comp_a, comp_b: the components (magnetic axes as unit vectors in
            their local frames).
        placement_a, placement_b: board placements (positions [m],
            rotations [rad]).

    Returns:
        The folded axis angle [rad], in ``[0, pi/2]``.
    """
    axis_a = comp_a.magnetic_axis_world(placement_a)
    axis_b = comp_b.magnetic_axis_world(placement_b)
    cos = abs(axis_a.dot(axis_b))
    cos = min(1.0, max(0.0, cos))
    return math.acos(cos)


def emd_factor(
    comp_a: Component,
    placement_a: Placement2D,
    comp_b: Component,
    placement_b: Placement2D,
    rule_residual: Dimensionless = 0.0,
) -> Dimensionless:
    """The PEMD reduction factor ``max(|cos(alpha)|, residuals)`` in [0, 1].

    Floors come from both the components (vertical axes, rotating stray
    fields) and the rule itself (measured perpendicular-axes coupling).

    Args:
        comp_a, comp_b: the components (each carries its own decoupling
            residual [-]).
        placement_a, placement_b: board placements (positions [m],
            rotations [rad]).
        rule_residual: rotation-proof fraction of the rule itself [-],
            in [0, 1] — from the perpendicular-axes sweep of the PEMD
            derivation.

    Returns:
        The dimensionless factor multiplying the PEMD, in [0, 1].
    """
    alpha = axis_angle(comp_a, placement_a, comp_b, placement_b)
    floor = max(
        comp_a.decoupling_residual, comp_b.decoupling_residual, rule_residual
    )
    return max(abs(math.cos(alpha)), min(1.0, floor))


def effective_min_distance(
    pemd: Meters, alpha_rad: Radians, residual: Dimensionless = 0.0
) -> Meters:
    """``EMD = PEMD * max(|cos(alpha)|, residual)``.

    Args:
        pemd: parallel-axes minimum distance [m], non-negative.
        alpha_rad: angle between the magnetic axes [rad].
        residual: rotation-proof fraction [-], in [0, 1].

    Returns:
        The effective minimum distance [m].

    Raises:
        ValueError: for a negative PEMD or a residual outside [0, 1].
    """
    if pemd < 0.0:
        raise ValueError("pemd must be non-negative")
    if not 0.0 <= residual <= 1.0:
        raise ValueError("residual must lie in [0, 1]")
    return pemd * max(abs(math.cos(alpha_rad)), residual)


def emd_for_pair(
    comp_a: Component,
    placement_a: Placement2D,
    comp_b: Component,
    placement_b: Placement2D,
    pemd: Meters,
    rule_residual: Dimensionless = 0.0,
) -> Meters:
    """Effective minimum distance for a placed pair under its PEMD rule.

    Args:
        comp_a, comp_b: the components (local-frame magnetic axes).
        placement_a, placement_b: board placements (positions [m],
            rotations [rad]).
        pemd: parallel-axes minimum distance of the rule [m].
        rule_residual: rotation-proof fraction of the rule [-], in [0, 1].

    Returns:
        The effective minimum distance [m] at the pair's current
        orientations.

    Raises:
        ValueError: for a negative PEMD.
    """
    if pemd < 0.0:
        raise ValueError("pemd must be non-negative")
    return pemd * emd_factor(
        comp_a, placement_a, comp_b, placement_b, rule_residual
    )

