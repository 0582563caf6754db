"""Rectangles and cuboids — the collision primitives of the placement tool.

The paper's placer states: *"all placement relevant objects on board
(components, keepouts) are rectilinear approximated by rectangles or
cuboids"*.  This module provides oriented rectangles (component footprints at
arbitrary rotation), their axis-aligned rectilinear approximation, cuboids
for 3-D keepouts, and the separation / overlap queries the legaliser and the
online DRC run in their inner loops.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .transform import Placement2D
from .vec import EPS, Vec2

__all__ = ["Rect", "OrientedRect", "Cuboid"]


@dataclass(frozen=True)
class Rect:
    """Axis-aligned rectangle, the rectilinear approximation unit."""

    xmin: float
    ymin: float
    xmax: float
    ymax: float

    def __post_init__(self) -> None:
        if self.xmax < self.xmin or self.ymax < self.ymin:
            raise ValueError(f"invalid Rect extents: {self}")

    @property
    def width(self) -> float:
        """Extent along x."""
        return self.xmax - self.xmin

    @property
    def height(self) -> float:
        """Extent along y."""
        return self.ymax - self.ymin

    def area(self) -> float:
        """Enclosed area."""
        return self.width * self.height

    def center(self) -> Vec2:
        """Geometric centre."""
        return Vec2(0.5 * (self.xmin + self.xmax), 0.5 * (self.ymin + self.ymax))

    def corners(self) -> list[Vec2]:
        """The four corners, counter-clockwise from (xmin, ymin)."""
        return [
            Vec2(self.xmin, self.ymin),
            Vec2(self.xmax, self.ymin),
            Vec2(self.xmax, self.ymax),
            Vec2(self.xmin, self.ymax),
        ]

    def inflated(self, margin: float) -> "Rect":
        """Grow (or shrink, for negative margin) uniformly on all sides."""
        r = Rect.__new__(Rect)
        object.__setattr__(r, "xmin", self.xmin - margin)
        object.__setattr__(r, "ymin", self.ymin - margin)
        object.__setattr__(r, "xmax", max(self.xmax + margin, self.xmin - margin))
        object.__setattr__(r, "ymax", max(self.ymax + margin, self.ymin - margin))
        return r

    def translated(self, delta: Vec2) -> "Rect":
        """Copy shifted by ``delta``."""
        return Rect(
            self.xmin + delta.x, self.ymin + delta.y, self.xmax + delta.x, self.ymax + delta.y
        )

    def contains_point(self, p: Vec2, tol: float = EPS) -> bool:
        """Closed containment test."""
        return (
            self.xmin - tol <= p.x <= self.xmax + tol
            and self.ymin - tol <= p.y <= self.ymax + tol
        )

    def overlaps(self, other: "Rect", tol: float = EPS) -> bool:
        """True if interiors overlap (touching edges do not count)."""
        return not (
            self.xmax <= other.xmin + tol
            or other.xmax <= self.xmin + tol
            or self.ymax <= other.ymin + tol
            or other.ymax <= self.ymin + tol
        )

    def overlap_area(self, other: "Rect") -> float:
        """Area of the intersection (zero if disjoint)."""
        w = min(self.xmax, other.xmax) - max(self.xmin, other.xmin)
        h = min(self.ymax, other.ymax) - max(self.ymin, other.ymin)
        if w <= 0.0 or h <= 0.0:
            return 0.0
        return w * h

    def separation(self, other: "Rect") -> float:
        """Minimum edge-to-edge distance; 0 if the rectangles touch/overlap."""
        dx = max(0.0, max(other.xmin - self.xmax, self.xmin - other.xmax))
        dy = max(0.0, max(other.ymin - self.ymax, self.ymin - other.ymax))
        return math.hypot(dx, dy)

    def union(self, other: "Rect") -> "Rect":
        """Smallest rectangle covering both."""
        return Rect(
            min(self.xmin, other.xmin),
            min(self.ymin, other.ymin),
            max(self.xmax, other.xmax),
            max(self.ymax, other.ymax),
        )

    @staticmethod
    def from_center(center: Vec2, width: float, height: float) -> "Rect":
        """Construct from centre and extents."""
        return Rect(
            center.x - width / 2.0,
            center.y - height / 2.0,
            center.x + width / 2.0,
            center.y + height / 2.0,
        )

    @staticmethod
    def bounding(points: list[Vec2]) -> "Rect":
        """Axis-aligned bounding box of a point set."""
        if not points:
            raise ValueError("cannot bound an empty point set")
        xs = [p.x for p in points]
        ys = [p.y for p in points]
        return Rect(min(xs), min(ys), max(xs), max(ys))


@dataclass(frozen=True)
class OrientedRect:
    """A rectangle with arbitrary rotation — a component body footprint.

    Stored as centre, half-extents in the local frame and rotation.  The
    placer works mostly on :meth:`aabb` (the paper's rectilinear
    approximation) but exact corner geometry is kept for rendering and for
    tight separation queries in the interactive adviser.
    """

    center: Vec2
    half_w: float
    half_h: float
    rotation_rad: float = 0.0

    def __post_init__(self) -> None:
        if self.half_w < 0.0 or self.half_h < 0.0:
            raise ValueError("half extents must be non-negative")

    def corners(self) -> list[Vec2]:
        """The four corners in board coordinates, counter-clockwise."""
        local = [
            Vec2(-self.half_w, -self.half_h),
            Vec2(self.half_w, -self.half_h),
            Vec2(self.half_w, self.half_h),
            Vec2(-self.half_w, self.half_h),
        ]
        return [c.rotated(self.rotation_rad) + self.center for c in local]

    def half_extents(self) -> Vec2:
        """Half-widths of the axis-aligned bounding box."""
        c = math.cos(self.rotation_rad)
        s = math.sin(self.rotation_rad)
        return Vec2(
            abs(c) * self.half_w + abs(s) * self.half_h,
            abs(s) * self.half_w + abs(c) * self.half_h,
        )

    def aabb(self) -> Rect:
        """Axis-aligned bounding box (the rectilinear approximation)."""
        e = self.half_extents()
        c = self.center
        return Rect(c.x - e.x, c.y - e.y, c.x + e.x, c.y + e.y)

    def area(self) -> float:
        """Exact rectangle area (rotation-invariant)."""
        return 4.0 * self.half_w * self.half_h

    def contains_point(self, p: Vec2, tol: float = EPS) -> bool:
        """Exact containment test in the rotated frame."""
        local = (p - self.center).rotated(-self.rotation_rad)
        return abs(local.x) <= self.half_w + tol and abs(local.y) <= self.half_h + tol

    def overlaps(self, other: "OrientedRect") -> bool:
        """Exact overlap test via the separating-axis theorem."""
        for rect_pair in ((self, other), (other, self)):
            a, b = rect_pair
            axes = [
                Vec2(1.0, 0.0).rotated(a.rotation_rad),
                Vec2(0.0, 1.0).rotated(a.rotation_rad),
            ]
            for axis in axes:
                a_min, a_max = _project(a, axis)
                b_min, b_max = _project(b, axis)
                if a_max <= b_min + EPS or b_max <= a_min + EPS:
                    return False
        return True

    def transformed(self, placement: Placement2D) -> "OrientedRect":
        """Apply a placement on top of the rect's own pose."""
        return OrientedRect(
            placement.apply(self.center),
            self.half_w,
            self.half_h,
            self.rotation_rad + placement.rotation_rad,
        )

    @staticmethod
    def from_footprint(width: float, height: float, placement: Placement2D) -> "OrientedRect":
        """Footprint centred on the component origin under a placement."""
        return OrientedRect(placement.position, width / 2.0, height / 2.0, placement.rotation_rad)


def _project(r: OrientedRect, axis: Vec2) -> tuple[float, float]:
    vals = [c.dot(axis) for c in r.corners()]
    return min(vals), max(vals)


@dataclass(frozen=True)
class Cuboid:
    """Axis-aligned cuboid for 3-D keepouts and component bodies.

    The paper's tool supports *"3D keepouts with/without z-offset"*: a
    keepout that starts above the board (e.g. under a heatsink overhang)
    blocks only components taller than the gap.
    """

    rect: Rect
    zmin: float
    zmax: float

    def __post_init__(self) -> None:
        if self.zmax < self.zmin:
            raise ValueError("zmax must be >= zmin")

    @property
    def height(self) -> float:
        """Vertical extent."""
        return self.zmax - self.zmin

    def volume(self) -> float:
        """Enclosed volume."""
        return self.rect.area() * self.height

    def overlaps(self, other: "Cuboid", tol: float = EPS) -> bool:
        """True if the interiors intersect in all three dimensions."""
        if self.zmax <= other.zmin + tol or other.zmax <= self.zmin + tol:
            return False
        return self.rect.overlaps(other.rect, tol)

    def translated(self, delta: Vec2, dz: float = 0.0) -> "Cuboid":
        """Copy shifted in the plane and vertically."""
        return Cuboid(self.rect.translated(delta), self.zmin + dz, self.zmax + dz)

    @staticmethod
    def from_body(footprint: Rect, body_height: float, z_offset: float = 0.0) -> "Cuboid":
        """Component body: footprint extruded from ``z_offset`` upwards."""
        return Cuboid(footprint, z_offset, z_offset + body_height)
