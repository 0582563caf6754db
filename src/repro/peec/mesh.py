"""Current paths — ordered filament meshes for component field models.

A :class:`CurrentPath` is the *"simplified field generating structure"* of a
component (the paper's Fig. 3): the internal current loop of a capacitor,
the segmented rings of a choke winding, a trace on the board.  Paths are
built in the component's local frame and mapped into board coordinates by
the placement transform.

Besides holding geometry, the mesh knows how to compute its magnetic dipole
moment (per ampere), which both the fast dipole coupling estimate and the
magnetic-axis extraction for the cos(alpha) placement rule use.
"""

from __future__ import annotations

import math
from collections.abc import Iterator, Sequence
from dataclasses import replace

from ..geometry import Transform3D, Vec3
from ..obs import get_tracer
from .filament import Filament, PackedFilaments

__all__ = ["CurrentPath", "ring_path", "rectangle_path"]


class CurrentPath:
    """An ordered collection of filaments carrying the same terminal current.

    A path holds its filaments as :class:`Filament` objects, as
    :class:`PackedFilaments` arrays, or both: each form is built from the
    other on first use and then kept.  Meshing builds the objects; placing
    and imaging a path are array ops (:meth:`transformed`,
    :meth:`from_packed`) that never build them, and the kernels read
    :attr:`packed`.  Neither form may be mutated once read.

    Attributes:
        filaments: the segments; each carries a signed ``weight`` so that a
            multi-turn winding can reuse one geometric ring per layer.
        packed: the same segments as read-only arrays.
        name: label used in reports and the coupling database.
    """

    def __init__(self, filaments: Sequence[Filament], name: str = "") -> None:
        if not filaments:
            raise ValueError("a current path needs at least one filament")
        self._filaments: list[Filament] | None = list(filaments)
        self._packed: PackedFilaments | None = None
        self.name = name

    @classmethod
    def from_packed(cls, packed: PackedFilaments, name: str = "") -> "CurrentPath":
        """A path over already packed filaments (objects built on demand)."""
        path = cls.__new__(cls)
        path._filaments = None
        path._packed = packed
        path.name = name
        return path

    @property
    def filaments(self) -> list[Filament]:
        """The segments as objects."""
        if self._filaments is None:
            assert self._packed is not None
            self._filaments = self._packed.filaments()
        return self._filaments

    @property
    def packed(self) -> PackedFilaments:
        """The segments as read-only arrays, packed once."""
        if self._packed is None:
            assert self._filaments is not None
            self._packed = PackedFilaments.of(self._filaments)
        return self._packed

    def __len__(self) -> int:
        return len(self.packed) if self._filaments is None else len(self._filaments)

    def __iter__(self) -> Iterator[Filament]:
        return iter(self.filaments)

    def transformed(self, transform: Transform3D) -> "CurrentPath":
        """Map the whole path through a rigid transform (one array op)."""
        return CurrentPath.from_packed(self.packed.transformed(transform), self.name)

    def total_length(self) -> float:
        """Sum of filament lengths, weighted by |turns| (wire length)."""
        return math.fsum(f.length * abs(f.weight) for f in self.filaments)

    def magnetic_moment(self) -> Vec3:
        """Magnetic dipole moment per ampere of terminal current [m^2].

        ``m = 1/2 * sum_k w_k * (r_mid,k x l_k)`` — exact for closed loops,
        a useful leading-order characterisation for nearly closed ones.
        """
        m = Vec3.zero()
        for f in self.filaments:
            dl = (f.end - f.start) * f.weight
            m = m + f.midpoint.cross(dl) * 0.5
        return m

    def magnetic_axis(self) -> Vec3:
        """Unit vector along the dipole moment.

        Falls back to the board normal for paths with a (near-)zero moment,
        e.g. a straight trace, which has no meaningful loop axis.
        """
        return self.axis_of_moment(self.magnetic_moment())

    @staticmethod
    def axis_of_moment(m: Vec3) -> Vec3:
        """The unit axis of a dipole moment, as :meth:`magnetic_axis` defines it."""
        if m.norm() < 1e-12:
            return Vec3(0.0, 0.0, 1.0)
        return m.normalized()

    def centroid(self) -> Vec3:
        """Length-weighted centroid of the path."""
        total_len = math.fsum(f.length for f in self.filaments)
        acc = Vec3.zero()
        for f in self.filaments:
            acc = acc + f.midpoint * f.length
        return acc / total_len

    def closure_error(self) -> float:
        """Distance between the path end and start (0 for a closed loop).

        Only meaningful for single-loop paths built head-to-tail; multi-ring
        winding models report the closure of the *last* ring.
        """
        return self.filaments[-1].end.distance_to(self.filaments[0].start)

    def merged_with(self, other: "CurrentPath") -> "CurrentPath":
        """Concatenate two paths carrying the same terminal current."""
        return CurrentPath(self.filaments + other.filaments, self.name or other.name)

    def scaled_weights(self, factor: float) -> "CurrentPath":
        """Copy with every filament weight multiplied by ``factor``."""
        return CurrentPath(
            [replace(f, weight=f.weight * factor) for f in self.filaments], self.name
        )


def ring_path(
    center: Vec3,
    radius: float,
    segments: int = 12,
    axis: str = "z",
    wire_diameter: float = 0.8e-3,
    weight: float = 1.0,
    name: str = "",
) -> CurrentPath:
    """A circular ring approximated by straight filaments.

    This is the paper's *"simplified winding setup (segmented rings)"* used
    for chokes.  ``axis`` selects the ring normal: ``"z"`` (flat on the
    board), ``"x"`` or ``"y"`` (standing rings, horizontal magnetic axis).

    Args:
        center: ring centre in local coordinates.
        radius: ring radius [m].
        segments: number of straight segments (12 keeps the perimeter error
            below 1.2 %, adequate against the method's ~15 % budget).
        axis: ring normal direction.
        wire_diameter: conductor diameter for the self-term cross-section.
        weight: turns weight applied to every filament.
        name: path label.
    """
    if segments < 3:
        raise ValueError("a ring needs at least 3 segments")
    if radius <= 0.0:
        raise ValueError("radius must be positive")
    pts: list[Vec3] = []
    for i in range(segments):
        angle = 2.0 * math.pi * i / segments
        u = radius * math.cos(angle)
        v = radius * math.sin(angle)
        if axis == "z":
            pts.append(center + Vec3(u, v, 0.0))
        elif axis == "x":
            pts.append(center + Vec3(0.0, u, v))
        elif axis == "y":
            pts.append(center + Vec3(v, 0.0, u))
        else:
            raise ValueError(f"axis must be 'x', 'y' or 'z', got {axis!r}")
    filaments = [
        Filament(
            pts[i],
            pts[(i + 1) % segments],
            width=wire_diameter,
            thickness=wire_diameter,
            weight=weight,
        )
        for i in range(segments)
    ]
    get_tracer().count("peec.filaments_meshed", segments)
    return CurrentPath(filaments, name=name)


def rectangle_path(
    corner_a: Vec3,
    corner_b: Vec3,
    normal: str = "y",
    width: float = 1e-3,
    thickness: float = 0.2e-3,
    weight: float = 1.0,
    name: str = "",
) -> CurrentPath:
    """A rectangular loop in a coordinate plane between two opposite corners.

    Used for capacitor internal loops (pad -> electrode -> pad) where the
    loop lies in a vertical plane.  ``normal`` names the axis perpendicular
    to the loop plane; the two corners must differ in exactly the two
    in-plane coordinates.
    """
    a = corner_a
    b = corner_b
    if normal == "y":
        p1, p2, p3, p4 = a, Vec3(b.x, a.y, a.z), Vec3(b.x, a.y, b.z), Vec3(a.x, a.y, b.z)
    elif normal == "x":
        p1, p2, p3, p4 = a, Vec3(a.x, b.y, a.z), Vec3(a.x, b.y, b.z), Vec3(a.x, a.y, b.z)
    elif normal == "z":
        p1, p2, p3, p4 = a, Vec3(b.x, a.y, a.z), Vec3(b.x, b.y, a.z), Vec3(a.x, b.y, a.z)
    else:
        raise ValueError(f"normal must be 'x', 'y' or 'z', got {normal!r}")
    corners = [p1, p2, p3, p4]
    filaments = []
    for i in range(4):
        s = corners[i]
        e = corners[(i + 1) % 4]
        if s.distance_to(e) < 1e-12:
            raise ValueError("degenerate rectangle loop: corners coincide in-plane")
        filaments.append(Filament(s, e, width=width, thickness=thickness, weight=weight))
    get_tracer().count("peec.filaments_meshed", 4)
    return CurrentPath(filaments, name=name)
