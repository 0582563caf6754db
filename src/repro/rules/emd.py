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
  in-plane dipoles).  With the rule's own residual they set the floor
  ``min(1, max(residual_a, residual_b, rule_residual))``, and the effective
  reduction factor is ``max(|cos(alpha)|, floor)``.

This module is the one place that arithmetic is done.  The pair functions,
the placer, the DRC, the metrics and the rotation step all reach
:func:`effective_min_distance` through the angle between the two parts'
world axes (:func:`emd_between_axes`) and the floor (:func:`emd_floor`).
"""

from __future__ import annotations

import math

from ..components import Component
from ..geometry import Placement2D, Vec3
from ..units import Dimensionless, Meters, Radians

__all__ = [
    "axis_angle",
    "emd_factor",
    "emd_floor",
    "effective_min_distance",
    "emd_between_axes",
    "emd_for_pair",
]


def _reduction(alpha_rad: Radians, floor: Dimensionless) -> Dimensionless:
    """The cos(alpha) law against its floor: ``max(|cos(alpha)|, floor)``."""
    return max(abs(math.cos(alpha_rad)), floor)


def _axes_angle(axis_a: Vec3, axis_b: Vec3) -> Radians:
    """Angle between two unsigned unit axes, folded into ``[0, pi/2]``."""
    return math.acos(min(1.0, abs(axis_a.dot(axis_b))))


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
    return _axes_angle(
        comp_a.magnetic_axis_world(placement_a), comp_b.magnetic_axis_world(placement_b)
    )


def emd_floor(
    comp_a: Component, comp_b: Component, rule_residual: Dimensionless = 0.0
) -> Dimensionless:
    """The fraction of a rule no rotation removes [-], in [0, 1]:
    ``min(1, max(residual_a, residual_b, rule_residual))``, from the parts
    (vertical axes, rotating stray fields) and from the rule itself (its
    perpendicular-axes coupling, measured by the PEMD derivation)."""
    return min(
        1.0, max(comp_a.decoupling_residual, comp_b.decoupling_residual, rule_residual)
    )


def emd_factor(
    comp_a: Component,
    placement_a: Placement2D,
    comp_b: Component,
    placement_b: Placement2D,
    rule_residual: Dimensionless = 0.0,
) -> Dimensionless:
    """The PEMD reduction factor ``max(|cos(alpha)|, floor)`` in [0, 1].

    Args:
        comp_a, comp_b: the components (each carries its own decoupling
            residual [-]).
        placement_a, placement_b: board placements (positions [m],
            rotations [rad]).
        rule_residual: rotation-proof fraction of the rule itself [-],
            in [0, 1] (see :func:`emd_floor`).

    Returns:
        The dimensionless factor multiplying the PEMD, in [0, 1].
    """
    return _reduction(
        axis_angle(comp_a, placement_a, comp_b, placement_b),
        emd_floor(comp_a, comp_b, rule_residual),
    )


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
    return pemd * _reduction(alpha_rad, residual)


def emd_between_axes(
    axis_a: Vec3, axis_b: Vec3, pemd: Meters, floor: Dimensionless
) -> Meters:
    """Effective minimum distance [m] of a rule between two unit world axes,
    from its PEMD [m] and its :func:`emd_floor` [-].

    Raises:
        ValueError: for a negative PEMD or a floor outside [0, 1].
    """
    return effective_min_distance(pemd, _axes_angle(axis_a, axis_b), floor)


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
    return emd_between_axes(
        comp_a.magnetic_axis_world(placement_a),
        comp_b.magnetic_axis_world(placement_b),
        pemd,
        emd_floor(comp_a, comp_b, rule_residual),
    )
