"""Magnetic-dipole approximation of component coupling.

Far from a component (distance large against its loop size) its stray field
is that of a point dipole with the moment-per-ampere the current path
reports.  The dipole-dipole mutual inductance

``M = (mu0 / 4 pi d^3) * (3 (ma.e)(mb.e) - ma.mb)``

(with ``e`` the unit separation vector and ``m`` the vector moments per
ampere) gives a closed-form coupling estimate that is orders of magnitude
cheaper than the filament double sum — the placer's candidate scoring uses
it, and it doubles as a far-field cross-check of the PEEC numbers.
"""

from __future__ import annotations

import math

from ..components import Component
from ..geometry import Placement2D
from ..peec import MU0, stray_coupling_scale

__all__ = ["dipole_mutual_inductance", "dipole_coupling_factor"]


def dipole_mutual_inductance(
    comp_a: Component,
    placement_a: Placement2D,
    comp_b: Component,
    placement_b: Placement2D,
) -> float:
    """Dipole-approximated mutual inductance [H] (signed).

    Uses each component's moment-per-ampere (including turns) and applies
    the same effective-permeability scaling as the full computation.
    """
    ta = placement_a.to_transform3d()
    tb = placement_b.to_transform3d()
    path_a = comp_a.current_path
    path_b = comp_b.current_path
    m_a = ta.apply_direction(path_a.magnetic_moment())
    m_b = tb.apply_direction(path_b.magnetic_moment())
    c_a = ta.apply(path_a.centroid())
    c_b = tb.apply(path_b.centroid())

    sep = c_b - c_a
    d = sep.norm()
    if d < 1e-9:
        raise ValueError("components coincide; dipole model undefined")
    e = sep / d
    dot_term = 3.0 * m_a.dot(e) * m_b.dot(e) - m_a.dot(m_b)
    m_air = MU0 / (4.0 * math.pi * d**3) * dot_term
    return m_air * stray_coupling_scale(
        comp_a.mu_eff, comp_a.core.stray_fraction, comp_b.mu_eff, comp_b.core.stray_fraction
    )


def dipole_coupling_factor(
    comp_a: Component,
    placement_a: Placement2D,
    comp_b: Component,
    placement_b: Placement2D,
) -> float:
    """Dipole-approximated coupling factor (signed, clamped to [-1, 1])."""
    m = dipole_mutual_inductance(comp_a, placement_a, comp_b, placement_b)
    k = m / math.sqrt(comp_a.self_inductance * comp_b.self_inductance)
    return max(-1.0, min(1.0, k))
