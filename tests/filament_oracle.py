"""The per-segment object form of a filament set, kept as a test oracle.

:mod:`repro.peec` holds a filament set in one form, :class:`PackedFilaments`
arrays, and its meshers build those arrays directly.  The object form they
replaced lives here: the :class:`Filament` dataclass, the object-built
``ring_path``, ``rectangle_path`` and ``route_current_path`` loops, and the
pack/unpack round trip.  Tests compare the array meshers with these loops
by their raw bytes, and read single-pair mutuals from the batched kernels
on two-row sets.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from repro.geometry import Vec3
from repro.peec import (
    CurrentPath,
    PackedFilaments,
    mutual_inductance_pairs,
    neumann_mutual_blocks,
    self_inductance_bar,
)
from repro.peec.filament import _DEFAULT_ORDER
from repro.routing.router import DEFAULT_COPPER_THICKNESS


@dataclass(frozen=True)
class Filament:
    """A straight current filament with a conductor cross-section.

    Attributes:
        start, end: end points [m].
        width, thickness: conductor cross-section [m] (self-term only).
        weight: signed current weight (turns; images carry a negated one).
    """

    start: Vec3
    end: Vec3
    width: float = 1e-3
    thickness: float = 35e-6
    weight: float = 1.0

    def __post_init__(self) -> None:
        if self.width <= 0.0 or self.thickness <= 0.0:
            raise ValueError("filament cross-section must be positive")
        if self.length < 1e-12:
            raise ValueError("zero-length filament")

    @property
    def length(self) -> float:
        return self.start.distance_to(self.end)

    @property
    def direction(self) -> Vec3:
        return (self.end - self.start).normalized()

    @property
    def midpoint(self) -> Vec3:
        return (self.start + self.end) * 0.5

    def reversed(self) -> Filament:
        return replace(self, start=self.end, end=self.start)

    def mirrored_z(self, plane_z: float) -> Filament:
        """Geometric mirror through ``z = plane_z`` (weight kept)."""
        return replace(
            self, start=self.start.mirrored_z(plane_z), end=self.end.mirrored_z(plane_z)
        )

    def self_inductance(self) -> float:
        return self_inductance_bar(self.length, self.width, self.thickness)


def pack(filaments: list[Filament]) -> PackedFilaments:
    """The objects as arrays, one row per filament, in order."""
    return PackedFilaments(
        np.array([[f.start.x, f.start.y, f.start.z] for f in filaments], dtype=float),
        np.array([[f.end.x, f.end.y, f.end.z] for f in filaments], dtype=float),
        np.array([f.width for f in filaments], dtype=float),
        np.array([f.thickness for f in filaments], dtype=float),
        np.array([f.weight for f in filaments], dtype=float),
    )


def unpack(packed: PackedFilaments) -> list[Filament]:
    """The arrays as objects (an exact round trip of :func:`pack`)."""
    return [
        Filament(Vec3(*start), Vec3(*end), width, thickness, weight)
        for start, end, width, thickness, weight in zip(
            packed.starts.tolist(),
            packed.ends.tolist(),
            packed.widths.tolist(),
            packed.thicknesses.tolist(),
            packed.weights.tolist(),
            strict=True,
        )
    ]


def path_of(filaments: list[Filament], name: str = "") -> CurrentPath:
    return CurrentPath(pack(filaments), name)


def packed_bytes(packed: PackedFilaments) -> tuple[bytes, ...]:
    """The raw bytes of every array (signed zeros distinguished)."""
    return tuple(
        np.ascontiguousarray(a).tobytes()
        for a in (packed.starts, packed.ends, packed.widths, packed.thicknesses, packed.weights)
    )


# -- the object-built meshers -------------------------------------------------


def object_ring(
    center: Vec3,
    radius: float,
    segments: int = 12,
    axis: str = "z",
    wire_diameter: float = 0.8e-3,
    weight: float = 1.0,
) -> list[Filament]:
    """``ring_path`` as it was built: one ``center + Vec3(...)`` per point."""
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
    return [
        Filament(
            pts[i],
            pts[(i + 1) % segments],
            width=wire_diameter,
            thickness=wire_diameter,
            weight=weight,
        )
        for i in range(segments)
    ]


def object_rectangle(
    corner_a: Vec3,
    corner_b: Vec3,
    normal: str = "y",
    width: float = 1e-3,
    thickness: float = 0.2e-3,
    weight: float = 1.0,
) -> list[Filament]:
    """``rectangle_path`` as it was built: four corner ``Vec3``s."""
    a, b = corner_a, corner_b
    if normal == "y":
        corners = [a, Vec3(b.x, a.y, a.z), Vec3(b.x, a.y, b.z), Vec3(a.x, a.y, b.z)]
    elif normal == "x":
        corners = [a, Vec3(a.x, b.y, a.z), Vec3(a.x, b.y, b.z), Vec3(a.x, a.y, b.z)]
    elif normal == "z":
        corners = [a, Vec3(b.x, a.y, a.z), Vec3(b.x, b.y, a.z), Vec3(a.x, b.y, a.z)]
    else:
        raise ValueError(f"normal must be 'x', 'y' or 'z', got {normal!r}")
    return [
        Filament(corners[i], corners[(i + 1) % 4], width=width, thickness=thickness, weight=weight)
        for i in range(4)
    ]


def object_route(
    route, z: float = 0.0, copper_thickness: float = DEFAULT_COPPER_THICKNESS
) -> list[Filament]:
    """``route_current_path`` as it was built: one filament per segment."""
    return [
        Filament(
            segment.start.as_vec3(z),
            segment.end.as_vec3(z),
            width=segment.width,
            thickness=copper_thickness,
        )
        for segment in route.segments
        if segment.length > 1e-9
    ]


# -- single-pair values from the batched kernels -------------------------------


def pair_mutual(f1: Filament, f2: Filament, order: int = _DEFAULT_ORDER) -> float:
    """The exact pair kernel on a two-row set: closed form for parallel
    pairs, zero for perpendicular ones, subdivided quadrature for skew ones."""
    return float(mutual_inductance_pairs(pack([f1, f2]), [0], [1], order)[0])


def parallel_mutual(f1: Filament, f2: Filament) -> float:
    """The closed form of a parallel pair (the pair kernel's parallel class)."""
    assert abs(abs(f1.direction.dot(f2.direction)) - 1.0) < 1e-12, "not parallel"
    return pair_mutual(f1, f2)


def neumann_mutual(f1: Filament, f2: Filament, order: int = _DEFAULT_ORDER) -> float:
    """The plain Neumann double integral, one ``order`` x ``order`` rule."""
    return float(neumann_mutual_blocks(pack([f1]), [pack([f2])], order)[0][0, 0])
