"""Current-compensated (common-mode) chokes with two or three windings.

The paper's Fig. 8 observation: a **two-winding** CM choke has preferred
(decoupled) positions for adjacent capacitors, while the **three-winding**
design *"generates almost rotating stray fields and therefore no decoupled
position for adjacent components can be found"*.

The model is a toroid of major radius ``R``; each winding occupies an arc of
the toroid and is represented by small segmented rings (minor radius ``r``)
whose axes are tangential to the major circle — exactly the reduced-ring
representation the paper uses for chokes.  Under *common-mode* excitation
all windings carry the same terminal current and their fluxes add around
the core; the uncovered arcs are where the stray field leaks out.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from ..geometry import Transform3D, Vec2, Vec3
from ..peec import FERRITE_N87, CoreMaterial, CurrentPath, PackedFilaments, ring_path
from .base import Component, Pad
from .inductors import wire_resistance

__all__ = ["CommonModeChoke", "cm_choke_2w", "cm_choke_3w"]


@dataclass
class CommonModeChoke(Component):
    """A toroidal current-compensated choke with ``n_windings`` windings.

    Attributes:
        n_windings: 2 (single-phase) or 3 (three-phase).
        major_radius: toroid major radius [m].
        minor_radius: winding (turn) radius [m].
        turns_per_winding: turns of each winding.
        coverage: fraction of the per-winding arc actually covered by wire
            (windings never quite touch; the gaps set the stray field).
        rings_per_winding: geometric rings representing each winding.
        rated_inductance: catalogue CM inductance per path [H], optional.
    """

    part_number: str = "CMC-2W"
    footprint_w: float = 26e-3
    footprint_h: float = 26e-3
    body_height: float = 14e-3
    n_windings: int = 2
    major_radius: float = 10e-3
    minor_radius: float = 4e-3
    turns_per_winding: int = 10
    coverage: float = 0.7
    rings_per_winding: int = 5
    wire_diameter: float = 1.0e-3
    core: CoreMaterial = FERRITE_N87
    rated_inductance: float | None = None
    pads: list[Pad] = field(default_factory=list)

    def __post_init__(self) -> None:
        super().__post_init__()
        if self.n_windings not in (2, 3):
            raise ValueError(f"{self.part_number}: n_windings must be 2 or 3")
        if not 0.1 <= self.coverage <= 1.0:
            raise ValueError(f"{self.part_number}: coverage must be in [0.1, 1]")
        if self.rings_per_winding < 2:
            raise ValueError(f"{self.part_number}: need >= 2 rings per winding")
        if self.wire_diameter <= 0.0:
            raise ValueError(f"{self.part_number}: wire_diameter must be positive")
        # Closed toroid core: small demagnetising factor, most flux confined,
        # stray coupling is carried by the winding-gap leakage that the ring
        # geometry itself produces.
        self.demag_factor = 0.02
        if not self.pads:
            self.pads = self._default_pads()

    def _default_pads(self) -> list[Pad]:
        pads: list[Pad] = []
        for w in range(self.n_windings):
            angle = self.winding_center_angle(w)
            radial = Vec2(math.cos(angle), math.sin(angle)) * (self.major_radius + 2e-3)
            pads.append(Pad(f"{w + 1}a", radial))
            pads.append(Pad(f"{w + 1}b", radial * 0.8))
        return pads

    def winding_center_angle(self, index: int) -> float:
        """Angular position of a winding's centre on the toroid [rad]."""
        assert self.n_windings > 0, "__post_init__ allows only 2 or 3 windings"
        return 2.0 * math.pi * index / self.n_windings

    def winding_path(self, index: int) -> CurrentPath:
        """The segmented-ring model of one winding alone.

        Needed for phase-resolved excitation: the three-phase choke's
        *"almost rotating stray fields"* (paper Fig. 8) only appear when
        each winding carries its own phase current, so the field analysis
        must keep the windings separable.

        Raises:
            IndexError: for an out-of-range winding index.
        """
        rings = self._winding_rings(index)
        return CurrentPath(PackedFilaments.concatenated(rings), f"{self.part_number}.w{index}")

    def build_current_path(self) -> CurrentPath:
        """All windings under common-mode excitation (fluxes add)."""
        rings = [ring for w in range(self.n_windings) for ring in self._winding_rings(w)]
        return CurrentPath(PackedFilaments.concatenated(rings), self.part_number)

    def _winding_rings(self, index: int) -> list[PackedFilaments]:
        """One winding's rings in place: one origin ring, meshed once and
        placed at each ring position."""
        if not 0 <= index < self.n_windings:
            raise IndexError(f"winding {index} of {self.n_windings}")
        assert self.rings_per_winding >= 2, "validated in __post_init__"
        weight = self.turns_per_winding / self.rings_per_winding
        z0 = self.body_height / 2.0
        arc = 2.0 * math.pi / self.n_windings * self.coverage
        center_angle = self.winding_center_angle(index)
        # A ring whose axis is tangential to the major circle: mesh it with
        # axis 'x' at the origin, then rotate into place (tangent at theta
        # is the x axis rotated by theta + 90 deg).
        ring = ring_path(
            Vec3.zero(),
            self.minor_radius,
            segments=8,
            axis="x",
            wire_diameter=self.wire_diameter,
            weight=weight,
        ).packed
        rings = []
        for i in range(self.rings_per_winding):
            frac = (i + 0.5) / self.rings_per_winding - 0.5
            theta = center_angle + frac * arc
            cx = self.major_radius * math.cos(theta)
            cy = self.major_radius * math.sin(theta)
            rings.append(ring.transformed(Transform3D(Vec3(cx, cy, z0), theta + math.pi / 2.0)))
        return rings

    @property
    def decoupling_residual(self) -> float:
        """How much of a rule survives any victim rotation.

        From the Fig. 8 analysis: around a **two-winding** choke the stray
        field is linearly polarised and adjacent parts have preferred
        (decoupled) placements — a small residual remains for robustness.
        The **three-winding** choke generates *"almost rotating stray
        fields"*: no orientation decouples an adjacent component, so most
        of the PEMD is irreducible.
        """
        return 0.15 if self.n_windings == 2 else 0.6

    @property
    def inductance(self) -> float:
        """Common-mode inductance per current path [H]."""
        if self.rated_inductance is not None:
            return self.rated_inductance
        assert self.n_windings > 0, "__post_init__ allows only 2 or 3 windings"
        return self.self_inductance / self.n_windings

    @property
    def esr(self) -> float:
        """Winding resistance per path [ohm]."""
        assert self.n_windings > 0, "__post_init__ allows only 2 or 3 windings"
        length_per_winding = self.current_path.total_length() / self.n_windings
        return wire_resistance(length_per_winding, self.wire_diameter)


def cm_choke_2w() -> CommonModeChoke:
    """Single-phase (two-winding) CM choke — has decoupled positions."""
    return CommonModeChoke(part_number="CMC-2W", n_windings=2)


def cm_choke_3w() -> CommonModeChoke:
    """Three-phase (three-winding) CM choke — near-rotating stray field."""
    return CommonModeChoke(part_number="CMC-3W", n_windings=3)
