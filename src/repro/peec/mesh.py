"""Current paths — filament meshes for component field models.

A :class:`CurrentPath` is the *"simplified field generating structure"* of a
component (the paper's Fig. 3): the internal current loop of a capacitor,
the segmented rings of a choke winding, a trace on the board.  Paths are
meshed in the component's local frame from validated :class:`Filament`
segments, packed once into :class:`PackedFilaments` arrays, and mapped
into board coordinates by the placement transform as one array op.

Besides holding geometry, the mesh knows how to compute its magnetic dipole
moment (per ampere), which both the fast dipole coupling estimate and the
magnetic-axis extraction for the cos(alpha) placement rule use.  The path
geometry is array code in the float order of the per-segment
:class:`~repro.geometry.Vec3` arithmetic (``Filament.midpoint``,
``Vec3.cross``), accumulated in segment order (``np.cumsum``), so a moment
equals a sum over :meth:`PackedFilaments.filaments` bit for bit on every
platform and Python version.
"""

from __future__ import annotations

import math
from collections.abc import Sequence

import numpy as np

from ..geometry import Transform3D, Vec3
from ..obs import get_tracer
from .filament import Filament, PackedFilaments

__all__ = ["CurrentPath", "ring_path", "rectangle_path"]


def _running_total(rows: np.ndarray) -> Vec3:
    """``Vec3.zero() + rows[0] + rows[1] + ...`` in that order, bit for bit.

    ``np.cumsum`` adds sequentially (``np.sum`` adds pairwise along a
    contiguous axis); the trailing ``+ 0.0`` turns an all-``-0.0`` column
    into the ``+0.0`` that starting from the zero vector gives.
    """
    x, y, z = (np.cumsum(rows, axis=0)[-1] + 0.0).tolist()
    return Vec3(x, y, z)


class CurrentPath:
    """A set of filaments carrying the same terminal current.

    The filaments are held in one form, :class:`PackedFilaments` arrays,
    packed once at construction; placing and imaging a path are array ops
    and the kernels read the arrays directly.  :meth:`PackedFilaments.filaments`
    is the object view for tests and oracles.

    Attributes:
        packed: the segments as read-only arrays; each carries a signed
            ``weight`` so that a multi-turn winding can reuse one geometric
            ring per layer.
        name: label used in reports and the coupling database.
    """

    def __init__(
        self, filaments: Sequence[Filament] | PackedFilaments, name: str = ""
    ) -> None:
        packed = PackedFilaments.of(filaments)
        if not len(packed):
            raise ValueError("a current path needs at least one filament")
        self.packed = packed
        self.name = name

    def __len__(self) -> int:
        return len(self.packed)

    def transformed(self, transform: Transform3D) -> "CurrentPath":
        """Map the whole path through a rigid transform (one array op)."""
        return CurrentPath(self.packed.transformed(transform), self.name)

    def total_length(self) -> float:
        """Sum of filament lengths, weighted by |turns| (wire length)."""
        packed = self.packed
        return math.fsum((packed.lengths() * np.abs(packed.weights)).tolist())

    def magnetic_moment(self) -> Vec3:
        """Magnetic dipole moment per ampere of terminal current [m^2].

        ``m = 1/2 * sum_k w_k * (r_mid,k x l_k)`` — exact for closed loops,
        a useful leading-order characterisation for nearly closed ones.
        """
        packed = self.packed
        mid = (packed.starts + packed.ends) * 0.5
        dl = (packed.ends - packed.starts) * packed.weights[:, None]
        cross = np.stack(
            [
                mid[:, 1] * dl[:, 2] - mid[:, 2] * dl[:, 1],
                mid[:, 2] * dl[:, 0] - mid[:, 0] * dl[:, 2],
                mid[:, 0] * dl[:, 1] - mid[:, 1] * dl[:, 0],
            ],
            axis=1,
        )
        return _running_total(cross * 0.5)

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
        packed = self.packed
        lengths = packed.lengths()
        mid = (packed.starts + packed.ends) * 0.5
        return _running_total(mid * lengths[:, None]) / math.fsum(lengths.tolist())

    def merged_with(self, other: "CurrentPath") -> "CurrentPath":
        """Both paths as one carrying the same terminal current, this one first."""
        return CurrentPath(self.packed.merged_with(other.packed), self.name or other.name)


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
