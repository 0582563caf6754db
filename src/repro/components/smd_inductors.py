"""SMD power inductors: shielded versus unshielded.

A direct consequence of the paper's methodology worth demonstrating:
component *construction* determines how much distance rule it demands.
An unshielded drum-core inductor throws most of its flux into the
neighbourhood; a magnetically shielded one (closed ferrite shell) keeps
the field inside — its ``stray_fraction`` is small, the fitted k(d) curve
drops, and the derived PEMD shrinks accordingly, letting the placer pack
the board tighter with the *same* electrical part.

Geometry: a vertical-axis drum winding (the standard SMD construction),
so these parts are rotation-invariant — exactly the case where the only
EMC levers left are distance and part selection.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..geometry import Vec2
from ..peec import CoreMaterial, CurrentPath, demagnetizing_factor_rod
from .base import Component, Pad
from .inductors import ring_stack, wire_resistance

__all__ = ["SmdPowerInductor", "shielded_power_inductor", "unshielded_power_inductor"]

#: Drum core with an open magnetic path: nearly all flux strays.
_DRUM_OPEN = CoreMaterial("drum-open", mu_r=2000.0, stray_fraction=0.9)

#: Drum core closed by a ferrite shield shell: little flux escapes.
_DRUM_SHIELDED = CoreMaterial("drum-shielded", mu_r=2000.0, stray_fraction=0.12)


@dataclass
class SmdPowerInductor(Component):
    """Vertical-axis SMD drum-core inductor (shielded or not).

    Attributes:
        turns: winding turns.
        coil_radius: mean winding radius [m].
        coil_height: winding stack height [m].
        shielded: closed ferrite shell around the drum.
        rated_inductance: optional catalogue value for the circuit model.
    """

    part_number: str = "SMD-IND-10u"
    footprint_w: float = 10e-3
    footprint_h: float = 10e-3
    body_height: float = 5e-3
    turns: int = 12
    coil_radius: float = 3.5e-3
    coil_height: float = 3.5e-3
    n_rings: int = 3
    wire_diameter: float = 0.6e-3
    shielded: bool = False
    rated_inductance: float | None = None
    pads: list[Pad] = field(
        default_factory=lambda: [Pad("1", Vec2(-4e-3, 0.0)), Pad("2", Vec2(4e-3, 0.0))]
    )

    def __post_init__(self) -> None:
        super().__post_init__()
        if self.turns < 1:
            raise ValueError(f"{self.part_number}: turns must be >= 1")
        self.core = _DRUM_SHIELDED if self.shielded else _DRUM_OPEN
        self.demag_factor = demagnetizing_factor_rod(
            self.coil_height, 2.0 * self.coil_radius
        )

    def build_current_path(self) -> CurrentPath:
        """Vertical stack of segmented rings (drum winding)."""
        return ring_stack(
            self.part_number,
            turns=self.turns,
            n_rings=self.n_rings,
            radius=self.coil_radius,
            length=self.coil_height,
            height=self.body_height / 2.0,
            axis="z",
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
        """Winding resistance estimate [ohm]."""
        return wire_resistance(self.current_path.total_length(), self.wire_diameter)


def shielded_power_inductor() -> SmdPowerInductor:
    """10 µH-class shielded drum inductor."""
    return SmdPowerInductor(part_number="SMD-IND-SH", shielded=True)


def unshielded_power_inductor() -> SmdPowerInductor:
    """The same winding without the shield shell."""
    return SmdPowerInductor(part_number="SMD-IND-UN", shielded=False)
