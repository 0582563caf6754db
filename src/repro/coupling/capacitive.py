"""Capacitive coupling between placed components.

The paper's outlook: *"capacitive coupling gain more influence at higher
frequencies"*.  This module extends the placed-pair analysis with the
electric-field path: each component body is reduced to an equivalent
sphere, and the pairwise mutual capacitance (plus the body-to-ground
capacitance when a plane is present) is computed from the placement.

The resulting capacitances slot into the circuit model as bridging
capacitors between the components' hot nodes — see
:meth:`repro.converters.BuckConverterDesign.apply_capacitive_couplings`.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..components import Component
from ..geometry import Placement2D
from ..obs import get_tracer
from ..peec.capacitance import (
    equivalent_radius,
    mutual_capacitance_spheres,
    plate_capacitance,
)

__all__ = ["CapacitiveResult", "component_capacitance", "capacitive_layout_couplings"]


@dataclass(frozen=True)
class CapacitiveResult:
    """Electric-field coupling of one placed pair."""

    mutual_f: float
    c_ground_a: float
    c_ground_b: float

    @property
    def mutual_pf(self) -> float:
        """Mutual capacitance in picofarads (the EMC-native unit)."""
        return self.mutual_f * 1e12


def _body_radius(component: Component) -> float:
    return equivalent_radius(
        component.footprint_w, component.footprint_h, component.body_height
    )


def component_capacitance(
    comp_a: Component,
    placement_a: Placement2D,
    comp_b: Component,
    placement_b: Placement2D,
    ground_plane_z: float | None = None,
) -> CapacitiveResult:
    """Mutual and ground capacitances for a placed pair.

    The body centres sit at half the body height; mutual capacitance uses
    the sphere-pair first order, ground capacitance the parallel-plate
    formula over the body footprint.

    Raises:
        ValueError: for coincident components.
    """
    ra = _body_radius(comp_a)
    rb = _body_radius(comp_b)
    center_a = placement_a.position.as_vec3(comp_a.body_height / 2.0)
    center_b = placement_b.position.as_vec3(comp_b.body_height / 2.0)
    d = center_a.distance_to(center_b)
    if d < 1e-9:
        raise ValueError("components coincide; capacitance model undefined")
    mutual = mutual_capacitance_spheres(ra, rb, d)

    cg_a = cg_b = 0.0
    if ground_plane_z is not None:
        gap_a = max(comp_a.body_height / 2.0 - ground_plane_z, 1e-4)
        gap_b = max(comp_b.body_height / 2.0 - ground_plane_z, 1e-4)
        cg_a = plate_capacitance(comp_a.footprint_area(), gap_a)
        cg_b = plate_capacitance(comp_b.footprint_area(), gap_b)
    return CapacitiveResult(mutual_f=mutual, c_ground_a=cg_a, c_ground_b=cg_b)


def capacitive_layout_couplings(
    problem,
    refdes_of_interest: list[str] | None = None,
    ground_plane_z: float | None = None,
    c_floor: float = 1e-15,
) -> dict[tuple[str, str], float]:
    """All-pairs mutual capacitances for the placed components of a layout.

    Mirrors :func:`repro.converters.layout_couplings` for the electric
    field: returns (refdes_a, refdes_b) -> farads, pairs below ``c_floor``
    dropped.
    """
    placed = [
        c
        for c in problem.placed()
        if refdes_of_interest is None or c.refdes in refdes_of_interest
    ]
    out: dict[tuple[str, str], float] = {}
    with get_tracer().span("coupling.capacitive_layout"):
        for i in range(len(placed)):
            for j in range(i + 1, len(placed)):
                a, b = placed[i], placed[j]
                if a.board != b.board:
                    continue
                result = component_capacitance(
                    a.component, a.placement, b.component, b.placement, ground_plane_z
                )
                if result.mutual_f >= c_floor:
                    key = (a.refdes, b.refdes) if a.refdes < b.refdes else (b.refdes, a.refdes)
                    out[key] = result.mutual_f
    return out
