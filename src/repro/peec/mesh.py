"""Current paths — filament meshes for component field models.

A :class:`CurrentPath` is the *"simplified field generating structure"* of a
component (the paper's Fig. 3): the internal current loop of a capacitor,
the segmented rings of a choke winding, a trace on the board.  Paths are
meshed in the component's local frame straight into checked
:class:`PackedFilaments` arrays (:meth:`PackedFilaments.segments`), and
mapped into board coordinates by the placement transform as one array op.

Besides holding geometry, the mesh knows how to compute its magnetic dipole
moment (per ampere), which both the fast dipole coupling estimate and the
magnetic-axis extraction for the cos(alpha) placement rule use.  The path
geometry is array code in the float order of the per-segment
:class:`~repro.geometry.Vec3` arithmetic (``(start + end) * 0.5``,
``Vec3.cross``), accumulated in segment order (``np.cumsum``), so a moment
equals the segment-by-segment ``Vec3`` sum bit for bit on every platform
and Python version.
"""

from __future__ import annotations

import math

import numpy as np

from ..geometry import Transform3D, Vec3
from ..obs import get_tracer
from .filament import PackedFilaments

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

    The filaments are held in one form, :class:`PackedFilaments` arrays;
    placing and imaging a path are array ops and the kernels read the
    arrays directly.

    Attributes:
        packed: the segments as read-only arrays; each carries a signed
            ``weight`` so that a multi-turn winding can reuse one geometric
            ring per layer.
        name: label used in reports and the coupling database.
    """

    def __init__(self, packed: PackedFilaments, name: str = "") -> None:
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

    Raises:
        ValueError: for fewer than 3 segments, a non-positive radius or
            wire diameter, or an unknown axis.
    """
    if segments < 3:
        raise ValueError("a ring needs at least 3 segments")
    if radius <= 0.0:
        raise ValueError("radius must be positive")
    if axis not in ("x", "y", "z"):
        raise ValueError(f"axis must be 'x', 'y' or 'z', got {axis!r}")
    angles = [2.0 * math.pi * i / segments for i in range(segments)]
    u = np.array([radius * math.cos(angle) for angle in angles])
    v = np.array([radius * math.sin(angle) for angle in angles])
    flat = np.zeros(segments)
    # center + Vec3(...) per point, one coordinate column at a time.
    cx, cy, cz = center.x, center.y, center.z
    if axis == "z":
        columns = (cx + u, cy + v, cz + flat)
    elif axis == "x":
        columns = (cx + flat, cy + u, cz + v)
    else:
        columns = (cx + v, cy + flat, cz + u)
    starts = np.stack(columns, axis=1)
    packed = PackedFilaments.segments(
        starts, np.roll(starts, -1, axis=0), wire_diameter, wire_diameter, weight
    )
    get_tracer().count("peec.filaments_meshed", segments)
    return CurrentPath(packed, name=name)


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

    Raises:
        ValueError: for an unknown normal, corners that coincide in-plane
            or a non-positive cross-section.
    """
    a, b = corner_a, corner_b
    if normal == "y":
        corners = [(a.x, a.y, a.z), (b.x, a.y, a.z), (b.x, a.y, b.z), (a.x, a.y, b.z)]
    elif normal == "x":
        corners = [(a.x, a.y, a.z), (a.x, b.y, a.z), (a.x, b.y, b.z), (a.x, a.y, b.z)]
    elif normal == "z":
        corners = [(a.x, a.y, a.z), (b.x, a.y, a.z), (b.x, b.y, a.z), (a.x, b.y, a.z)]
    else:
        raise ValueError(f"normal must be 'x', 'y' or 'z', got {normal!r}")
    starts = np.array(corners, dtype=float)
    packed = PackedFilaments.segments(
        starts, np.roll(starts, -1, axis=0), width, thickness, weight
    )
    get_tracer().count("peec.filaments_meshed", 4)
    return CurrentPath(packed, name=name)
