"""Bobbin-core chokes — the paper's segmented-ring winding models.

The paper (Fig. 4 / Fig. 11) models chokes *"using a simplified winding
setup (segmented rings)"* and corrects inductance and mutual inductance with
the effective permeability of the open bobbin core.  A winding of N turns is
represented by a few geometric rings, each carrying a turns weight, stacked
along the winding axis.

Two mounting orientations are supported: ``horizontal`` (axis in the board
plane — the orientation of the paper's Figs. 5, 7 and 10, where rotation
changes the coupling) and ``vertical`` (axis along the board normal —
rotation invariant).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from ..geometry import Vec2, Vec3
from ..peec import (
    FERRITE_N87,
    CoreMaterial,
    CurrentPath,
    PackedFilaments,
    demagnetizing_factor_rod,
    ring_path,
)
from .base import Component, Pad

__all__ = ["BobbinChoke", "small_bobbin_choke", "large_bobbin_choke"]


@dataclass
class BobbinChoke(Component):
    """A single-winding choke on an open bobbin (rod) core.

    Attributes:
        turns: total number of winding turns.
        coil_radius: mean winding radius [m].
        coil_length: axial length of the winding [m].
        n_rings: number of geometric rings representing the winding.
        orientation: ``"horizontal"`` (axis along local x, in-plane) or
            ``"vertical"`` (axis along z).
        wire_diameter: winding wire diameter [m].
        rated_inductance: optional catalogue inductance [H]; when set, it is
            used for the circuit model instead of the geometric estimate
            (the geometry still drives coupling factors).
    """

    part_number: str = "BOBBIN-100u"
    footprint_w: float = 12e-3
    footprint_h: float = 10e-3
    body_height: float = 12e-3
    turns: int = 20
    coil_radius: float = 4e-3
    coil_length: float = 8e-3
    n_rings: int = 5
    orientation: str = "horizontal"
    wire_diameter: float = 0.8e-3
    core: CoreMaterial = FERRITE_N87
    rated_inductance: float | None = None
    pads: list[Pad] = field(
        default_factory=lambda: [Pad("1", Vec2(-5e-3, 0.0)), Pad("2", Vec2(5e-3, 0.0))]
    )

    def __post_init__(self) -> None:
        super().__post_init__()
        if self.turns < 1:
            raise ValueError(f"{self.part_number}: turns must be >= 1")
        if self.n_rings < 1:
            raise ValueError(f"{self.part_number}: need at least one ring")
        if self.orientation not in ("horizontal", "vertical"):
            raise ValueError(
                f"{self.part_number}: orientation must be 'horizontal' or 'vertical'"
            )
        # Rod demagnetising factor from the actual coil geometry.
        self.demag_factor = demagnetizing_factor_rod(
            self.coil_length, 2.0 * self.coil_radius
        )

    def build_current_path(self) -> CurrentPath:
        """Segmented-ring winding model (the paper's Fig. 11 inset)."""
        return ring_stack(
            self.part_number,
            turns=self.turns,
            n_rings=self.n_rings,
            radius=self.coil_radius,
            length=self.coil_length,
            height=self.body_height / 2.0,
            axis="x" if self.orientation == "horizontal" else "z",
            wire_diameter=self.wire_diameter,
        )

    @property
    def inductance(self) -> float:
        """Inductance for the circuit model [H]."""
        if self.rated_inductance is not None:
            return self.rated_inductance
        return self.self_inductance

    @property
    def esr(self) -> float:
        """Winding resistance estimate from wire length and diameter [ohm]."""
        return wire_resistance(self.current_path.total_length(), self.wire_diameter)


def ring_stack(
    name: str,
    *,
    turns: int,
    n_rings: int,
    radius: float,
    length: float,
    height: float,
    axis: str,
    wire_diameter: float,
) -> CurrentPath:
    """A winding as ``n_rings`` 12-segment rings of ``turns / n_rings``
    turns each, spread evenly over ``length`` along ``axis`` (``"x"`` or
    ``"z"``) about the point (0, 0, ``height``); one ring sits at that
    point."""
    if n_rings < 1:
        raise ValueError(f"{name}: need at least one ring")
    gaps = n_rings - 1
    rings = []
    for i in range(n_rings):
        offset = -length / 2.0 + length * i / gaps if gaps else 0.0
        center = Vec3(offset, 0.0, height) if axis == "x" else Vec3(0.0, 0.0, height + offset)
        ring = ring_path(
            center, radius, 12, axis, wire_diameter=wire_diameter, weight=turns / n_rings
        )
        rings.append(ring.packed)
    return CurrentPath(PackedFilaments.concatenated(rings), name)


def wire_resistance(length: float, wire_diameter: float) -> float:
    """DC resistance of a copper wire of that length and diameter [ohm]."""
    area = math.pi * (wire_diameter / 2.0) ** 2
    if area <= 0.0:
        raise ValueError(f"wire diameter {wire_diameter} m must be positive")
    return 1.72e-8 * length / area


def small_bobbin_choke(orientation: str = "horizontal") -> BobbinChoke:
    """The smaller of the paper's Fig. 7 coil pair (~10 mm winding)."""
    return BobbinChoke(
        part_number="BOBBIN-S",
        footprint_w=10e-3,
        footprint_h=8e-3,
        body_height=10e-3,
        turns=15,
        coil_radius=3e-3,
        coil_length=6e-3,
        n_rings=4,
        orientation=orientation,
    )


def large_bobbin_choke(orientation: str = "horizontal") -> BobbinChoke:
    """The larger Fig. 7 coil (~16 mm winding)."""
    return BobbinChoke(
        part_number="BOBBIN-L",
        footprint_w=18e-3,
        footprint_h=14e-3,
        body_height=16e-3,
        turns=25,
        coil_radius=6e-3,
        coil_length=12e-3,
        n_rings=6,
        orientation=orientation,
    )
