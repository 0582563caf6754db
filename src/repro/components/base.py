"""Component base class: geometry, field model and parasitics in one object.

Every part in the library describes itself three ways, mirroring the paper's
modelling flow:

* **for the placer** — a rectangular footprint, a body height and a default
  clearance (the rectilinear approximation of section 4 of the paper);
* **for the field engine** — a simplified internal :class:`CurrentPath`
  (the paper's Fig. 3: the field-generating structure), its magnetic axis
  and, for cored parts, the effective-permeability correction;
* **for the circuit simulator** — electrical value plus parasitics (ESR and
  a geometric ESL derived from the very same current path, keeping the two
  domains consistent).

All dimensions are SI metres; convenience constructors accept millimetres.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property

from ..geometry import OrientedRect, Placement2D, Rect, Vec2, Vec3
from ..parallel.fingerprint import component_fingerprint
from ..peec import (
    AIR_CORE,
    CoreMaterial,
    CurrentPath,
    loop_self_inductance,
)

__all__ = ["Component", "Pad", "DEFAULT_CLEARANCE", "FIELD_RELEVANT_MOMENT"]

#: Default manufacturing clearance between component bodies [m].
DEFAULT_CLEARANCE = 0.5e-3

#: Magnetic moment per ampere [m^2] from which a part counts as a field
#: source worth a coupling analysis (:attr:`Component.field_relevant`).
FIELD_RELEVANT_MOMENT = 1e-6


@dataclass(frozen=True)
class Pad:
    """A terminal pad in the component's local frame."""

    name: str
    position: Vec2


@dataclass
class Component:
    """A placeable, field-generating, simulatable part.

    Subclasses override :meth:`build_current_path` and set electrical
    parameters; this base class owns the shared geometry bookkeeping.

    Attributes:
        part_number: catalogue identifier (e.g. ``"X2-1u5"``).
        footprint_w: body extent along local x [m].
        footprint_h: body extent along local y [m].
        body_height: extent above the board [m].
        pads: terminal pads in the local frame.
        clearance: minimum body-to-body spacing required for manufacturing.
        core: magnetic core material (AIR_CORE for coreless parts).
        demag_factor: demagnetising factor of the core shape (unused for air).
        allowed_rotations_deg: rotations the placer may choose from.
    """

    part_number: str
    footprint_w: float
    footprint_h: float
    body_height: float
    pads: list[Pad] = field(default_factory=list)
    clearance: float = DEFAULT_CLEARANCE
    core: CoreMaterial = AIR_CORE
    demag_factor: float = 1.0 / 3.0
    allowed_rotations_deg: tuple[float, ...] = (0.0, 90.0, 180.0, 270.0)

    def __post_init__(self) -> None:
        if self.footprint_w <= 0.0 or self.footprint_h <= 0.0:
            raise ValueError(f"{self.part_number}: footprint must be positive")
        if self.body_height <= 0.0:
            raise ValueError(f"{self.part_number}: body height must be positive")

    # -- field model -----------------------------------------------------

    def build_current_path(self) -> CurrentPath:
        """The simplified field-generating structure, in the local frame.

        Subclasses must override.  The default raises so that a part that
        genuinely has no field model (a connector) can override with a
        minimal stub instead of silently contributing nothing.
        """
        raise NotImplementedError(f"{type(self).__name__} lacks a field model")

    @cached_property
    def current_path(self) -> CurrentPath:
        """Cached local-frame current path."""
        return self.build_current_path()

    @cached_property
    def mu_eff(self) -> float:
        """Effective permeability of the core (1.0 for air)."""
        return self.core.mu_eff(self.demag_factor)

    @cached_property
    def fingerprint(self) -> str:
        """Cached content hash of the field model (the coupling-cache identity)."""
        return component_fingerprint(self)

    @cached_property
    def geometric_inductance(self) -> float:
        """Air-core loop self-inductance of the current path [H].

        Solved on first read unless a coupling database seeded it
        (:meth:`seed_geometric_inductance`).
        """
        return loop_self_inductance(self.current_path)

    def seed_geometric_inductance(self, value: float) -> None:
        """Install an already solved :attr:`geometric_inductance` [H].

        Used by :meth:`repro.coupling.CouplingDatabase.self_inductance`,
        which keys the value by this part's :attr:`fingerprint`.
        """
        self.__dict__["geometric_inductance"] = value

    @property
    def self_inductance(self) -> float:
        """Loop self-inductance including the core correction [H]."""
        return self.geometric_inductance * self.mu_eff

    @cached_property
    def magnetic_moment_local(self) -> Vec3:
        """Cached local-frame dipole moment per ampere of the current path [m^2]."""
        return self.current_path.magnetic_moment()

    @property
    def stray_field_strength(self) -> float:
        """Loop moment per ampere times effective permeability [m^2]."""
        return self.magnetic_moment_local.norm() * self.mu_eff

    @property
    def field_relevant(self) -> bool:
        """True if the loop moment per ampere reaches :data:`FIELD_RELEVANT_MOMENT`."""
        return self.magnetic_moment_local.norm() >= FIELD_RELEVANT_MOMENT

    @cached_property
    def _axis_local(self) -> Vec3:
        return CurrentPath.axis_of_moment(self.magnetic_moment_local)

    def magnetic_axis_local(self) -> Vec3:
        """Unit magnetic axis in the local frame (cached)."""
        return self._axis_local

    def magnetic_axis_world(self, placement: Placement2D) -> Vec3:
        """Unit magnetic axis under a placement."""
        return placement.to_transform3d().apply_direction(self._axis_local)

    def placed_current_path(self, placement: Placement2D) -> CurrentPath:
        """Current path mapped into board coordinates (one array op)."""
        path = self.current_path
        return CurrentPath(path.packed.placed(placement), path.name)

    @property
    def decoupling_residual(self) -> float:
        """Fraction of the PEMD that rotation can never remove (0..1).

        The cos(alpha) rule assumes the pair decouples at perpendicular
        axes.  That only holds for parts whose stray field is a clean
        in-plane dipole; a vertical-axis part is rotation-invariant, so its
        rules must not shrink with rotation at all.  The default uses the
        axis' out-of-plane fraction (|z| of the unit axis): 0 for an
        in-plane dipole, 1 for a vertical one.  Subclasses with rotating
        stray fields (three-winding CM chokes) override this.
        """
        return min(1.0, abs(self._axis_local.z))

    def has_inplane_axis(self, tol: float = 0.3) -> bool:
        """True if the magnetic axis lies (mostly) in the board plane.

        Only in-plane axes give the placer leverage via rotation — a
        vertical-axis part couples rotation-invariantly.
        """
        axis = self._axis_local
        return math.hypot(axis.x, axis.y) > tol

    # -- placement model ---------------------------------------------------

    def footprint_rect_local(self) -> Rect:
        """Axis-aligned local footprint centred on the origin."""
        return Rect(
            -self.footprint_w / 2.0,
            -self.footprint_h / 2.0,
            self.footprint_w / 2.0,
            self.footprint_h / 2.0,
        )

    def half_extent(self, rotation_deg: float) -> Vec2:
        """Half-widths of the footprint's axis-aligned box at a rotation."""
        footprint = OrientedRect(
            Vec2.zero(), self.footprint_w / 2.0, self.footprint_h / 2.0, math.radians(rotation_deg)
        )
        return footprint.half_extents()

    def footprint_area(self) -> float:
        """Footprint area [m^2]."""
        return self.footprint_w * self.footprint_h

    def max_extent(self) -> float:
        """Circumscribed-circle diameter — a rotation-independent size bound."""
        return math.hypot(self.footprint_w, self.footprint_h)

    # -- electrical model --------------------------------------------------

    @property
    def esl(self) -> float:
        """Equivalent series inductance [H] (geometric by default)."""
        return self.self_inductance

    @property
    def esr(self) -> float:
        """Equivalent series resistance [ohm]; subclasses override."""
        return 0.0

    def pad_position(self, name: str) -> Vec2:
        """Local position of a pad by name.

        Raises:
            KeyError: if no pad carries that name.
        """
        for pad in self.pads:
            if pad.name == name:
                return pad.position
        raise KeyError(f"{self.part_number} has no pad {name!r}")

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"{type(self).__name__}({self.part_number!r}, "
            f"{self.footprint_w * 1e3:.1f}x{self.footprint_h * 1e3:.1f}mm)"
        )
