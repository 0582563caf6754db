"""Geometry kernel: vectors, transforms, polygons and collision primitives.

Everything the PEEC field engine and the placement tool share lives here so
that component geometry has a single source of truth.
"""

from .polygon import Polygon2D, convex_hull
from .rows import unique_rows
from .shapes import Cuboid, OrientedRect, Rect
from .transform import Placement2D, Transform3D, angle_between, normalize_angle
from .vec import EPS, Vec2, Vec3, almost_equal, deg_to_rad, rad_to_deg

__all__ = [
    "EPS",
    "Vec2",
    "Vec3",
    "almost_equal",
    "deg_to_rad",
    "rad_to_deg",
    "Placement2D",
    "Transform3D",
    "normalize_angle",
    "angle_between",
    "Polygon2D",
    "convex_hull",
    "Rect",
    "OrientedRect",
    "Cuboid",
    "unique_rows",
]
