"""Simple polygons for placement areas, keepins and board outlines.

The placement tool of the paper supports *"different arbitrary shaped
placement areas"*; this module provides the polygon predicates the placer
needs: containment (point and rectangle), area/centroid, bounding box,
inward offset (erosion) for clearance handling, and uniform boundary
sampling for candidate generation.  Polygons are simple (non
self-intersecting) and stored counter-clockwise.
"""

from __future__ import annotations

import math
from collections.abc import Iterable, Sequence
from dataclasses import dataclass, field

import numpy as np
from numpy.typing import ArrayLike

from .vec import EPS, Vec2

__all__ = ["Polygon2D", "convex_hull"]


def _signed_area(points: Sequence[Vec2]) -> float:
    total = 0.0
    n = len(points)
    if n == 0:
        return 0.0
    for i in range(n):
        a = points[i]
        b = points[(i + 1) % n]
        total += a.cross(b)
    return 0.5 * total


def convex_hull(points: Iterable[Vec2]) -> list[Vec2]:
    """Andrew's monotone-chain convex hull; returns CCW vertices without
    the closing repeat.  Collinear points on the hull are dropped.

    The orientation predicate is evaluated in *exact rational arithmetic*
    (floats convert to :class:`fractions.Fraction` losslessly), so the
    hull is combinatorially correct for any input — epsilon-thresholded
    cross products misclassify near-collinear triples and can discard
    extreme points.
    """
    from fractions import Fraction

    pts = sorted(set((p.x, p.y) for p in points))
    if len(pts) <= 2:
        return [Vec2(x, y) for x, y in pts]

    def orientation(
        o: tuple[float, float], a: tuple[float, float], p: tuple[float, float]
    ) -> int:
        """Exact sign of the cross product (o->a) x (o->p)."""
        cross = (Fraction(a[0]) - Fraction(o[0])) * (
            Fraction(p[1]) - Fraction(o[1])
        ) - (Fraction(a[1]) - Fraction(o[1])) * (Fraction(p[0]) - Fraction(o[0]))
        if cross > 0:
            return 1
        if cross < 0:
            return -1
        return 0

    def half(seq: Iterable[tuple[float, float]]) -> list[tuple[float, float]]:
        out: list[tuple[float, float]] = []
        for p in seq:
            # Pop right turns and exact collinear middles (lexicographic
            # order along a line equals geometric order, so the popped
            # point is genuinely interior).
            while len(out) >= 2 and orientation(out[-2], out[-1], p) <= 0:
                out.pop()
            out.append(p)
        return out

    lower = half(pts)
    upper = half(reversed(pts))
    hull = lower[:-1] + upper[:-1]
    if len(hull) < 3:
        # Fully collinear input collapses to its extreme pair.
        return [Vec2(*lower[0]), Vec2(*lower[-1])]
    return [Vec2(x, y) for x, y in hull]


#: One polygon edge a -> b: ``ax, ay, bx, by``, ``abx, aby`` (= b - a), the
#: on-edge scale ``max(1, |ab|)`` and ``|ab|^2``, all Python floats.
_Edge = tuple[float, float, float, float, float, float, float, float]


@dataclass(frozen=True)
class Polygon2D:
    """A simple polygon with counter-clockwise vertex order.

    Construction normalises orientation: clockwise input is reversed, so
    callers may supply vertices in either winding.  A vertex equal to its
    predecessor is dropped, so a closed outline (first vertex repeated at
    the end) equals the open one.  The polygon is
    immutable: ``vertices`` is stored as a tuple, and the edge table the
    predicates read is built once, here.
    """

    vertices: Sequence[Vec2]
    _edges: tuple[_Edge, ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        given = tuple(self.vertices)
        # A vertex equal to its predecessor (a closing repeat of the first
        # vertex included) would make a zero-length edge, which every
        # point lies "on": drop it.
        vertices = tuple(v for i, v in enumerate(given) if i == 0 or v != given[i - 1])
        while len(vertices) > 1 and vertices[-1] == vertices[0]:
            vertices = vertices[:-1]
        if len(vertices) < 3:
            raise ValueError("a polygon needs at least 3 distinct vertices")
        if _signed_area(vertices) < 0.0:
            vertices = vertices[::-1]
        edges: list[_Edge] = []
        for a, b in zip(vertices, (*vertices[1:], vertices[0])):
            abx, aby = b.x - a.x, b.y - a.y
            scale = max(1.0, math.hypot(abx, aby))
            edges.append((a.x, a.y, b.x, b.y, abx, aby, scale, abx * abx + aby * aby))
        object.__setattr__(self, "vertices", vertices)
        object.__setattr__(self, "_edges", tuple(edges))

    # -- basic measures -------------------------------------------------

    def area(self) -> float:
        """Enclosed area (always positive)."""
        return abs(_signed_area(self.vertices))

    def perimeter(self) -> float:
        """Total boundary length."""
        n = len(self.vertices)
        assert n >= 3, "__post_init__ guarantees at least 3 vertices"
        return sum(
            self.vertices[i].distance_to(self.vertices[(i + 1) % n]) for i in range(n)
        )

    def centroid(self) -> Vec2:
        """Area centroid."""
        a = _signed_area(self.vertices)
        n = len(self.vertices)
        assert n >= 3, "__post_init__ guarantees at least 3 vertices"
        if -EPS < a < EPS:
            # Degenerate: fall back to vertex average.
            sx = sum(v.x for v in self.vertices)
            sy = sum(v.y for v in self.vertices)
            return Vec2(sx / n, sy / n)
        cx = cy = 0.0
        for i in range(n):
            p = self.vertices[i]
            q = self.vertices[(i + 1) % n]
            w = p.cross(q)
            cx += (p.x + q.x) * w
            cy += (p.y + q.y) * w
        return Vec2(cx / (6.0 * a), cy / (6.0 * a))

    def bbox(self) -> tuple[float, float, float, float]:
        """Axis-aligned bounding box as (xmin, ymin, xmax, ymax)."""
        xs = [v.x for v in self.vertices]
        ys = [v.y for v in self.vertices]
        return min(xs), min(ys), max(xs), max(ys)

    # -- predicates ------------------------------------------------------

    def _locate(
        self, px: np.ndarray, py: np.ndarray, tol: float
    ) -> tuple[np.ndarray, list[np.ndarray]]:
        """Inside-or-on-boundary flags of the points, and each edge's cross
        product ``ab x ap`` at every point (> 0 left of the edge line).

        Edge-major: one pass per edge of elementwise ops over all points.
        A point is on an edge when it lies within ``tol`` of it (scaled by
        the edge length); otherwise a horizontal ray towards +x decides by
        parity.  The ray test is division-free: 'x_int > p.x' is the sign of
        the same cross product, oriented by the edge's y direction, and
        horizontal edges never straddle the ray.
        """
        on_edge = np.zeros(px.shape, dtype=bool)
        odd = np.zeros(px.shape, dtype=bool)
        crosses: list[np.ndarray] = []
        for ax, ay, _bx, by, abx, aby, scale, len_sq in self._edges:
            apx = px - ax
            apy = py - ay
            cross = abx * apy - aby * apx
            t = apx * abx + apy * aby
            on_edge |= (np.abs(cross) <= tol * scale) & (-tol <= t) & (t <= len_sq + tol)
            if ay != by:
                straddles = (ay > py) != (by > py)
                odd ^= straddles & ((cross > 0.0) if aby > 0.0 else (cross < 0.0))
            crosses.append(cross)
        return on_edge | odd, crosses

    def _drop_crossed(
        self, cx: np.ndarray, cy: np.ndarray, crosses: list[np.ndarray], keep: np.ndarray
    ) -> None:
        """Clear ``keep`` for each rectangle (a column of the (4, M) corners,
        counter-clockwise; corner k -> k+1 is its edge k) whose edges cross
        a polygon edge at a single interior point of both.  ``crosses`` are
        the corners' sides of each edge line (from :meth:`_locate`); only a
        rectangle with corners beyond ``EPS`` on both sides can cross it.
        """
        sides = np.stack(crosses)  # (edge, corner, rectangle)
        above = sides > EPS
        below = sides < -EPS
        straddles = above.any(axis=1) & below.any(axis=1) & keep
        following = [1, 2, 3, 0]
        for e in np.flatnonzero(straddles.any(axis=1)).tolist():
            ax, ay, bx, by = self._edges[e][:4]
            rows = np.flatnonzero(straddles[e] & keep)
            pos, neg = above[e][:, rows], below[e][:, rows]
            splits = (pos & neg[following]) | (neg & pos[following])
            x, y = cx[:, rows], cy[:, rows]
            dx = x[following] - x
            dy = y[following] - y
            d3 = dx * (ay - y) - dy * (ax - x)
            d4 = dx * (by - y) - dy * (bx - x)
            crossed = splits & (((d3 > EPS) & (d4 < -EPS)) | ((d3 < -EPS) & (d4 > EPS)))
            keep[rows[crossed.any(axis=0)]] = False

    def contains_points(self, xs: ArrayLike, ys: ArrayLike, tol: float = EPS) -> np.ndarray:
        """Batch point-in-polygon test; boundary points count as inside.

        A point is inside when it lies within ``tol`` of an edge (on-edge
        test scaled by the edge length) or when a horizontal ray towards +x
        crosses the boundary an odd number of times.  Returns a bool array
        shaped like the broadcast of ``xs`` and ``ys``.
        """
        px, py = np.broadcast_arrays(np.asarray(xs, dtype=float), np.asarray(ys, dtype=float))
        return self._locate(px, py, tol)[0]

    def contains_point(self, p: Vec2, tol: float = EPS) -> bool:
        """Point-in-polygon test; boundary points count as inside."""
        return bool(self.contains_points(p.x, p.y, tol))

    def contains_rects(
        self, xmin: ArrayLike, ymin: ArrayLike, xmax: ArrayLike, ymax: ArrayLike
    ) -> np.ndarray:
        """Batch test: which axis-aligned rectangles lie fully inside.

        Checks the four corners (as :meth:`contains_points`) plus the
        absence of proper crossings between rectangle edges and polygon
        edges, which decides every rectangle whose edges do not run along
        polygon edges.  Returns a bool array, one entry per rectangle.
        """
        x0, y0, x1, y1 = np.broadcast_arrays(
            *(np.atleast_1d(np.asarray(v, dtype=float)) for v in (xmin, ymin, xmax, ymax))
        )
        cx = np.stack([x0, x1, x1, x0])
        cy = np.stack([y0, y0, y1, y1])
        corners, crosses = self._locate(cx, cy, EPS)
        inside = corners.all(axis=0)
        self._drop_crossed(cx, cy, crosses, inside)
        return inside

    def contains_rect(self, xmin: float, ymin: float, xmax: float, ymax: float) -> bool:
        """True if an axis-aligned rectangle lies fully inside (see :meth:`contains_rects`)."""
        return bool(self.contains_rects(xmin, ymin, xmax, ymax)[0])

    def intersects_rect(self, xmin: float, ymin: float, xmax: float, ymax: float) -> bool:
        """True if the rectangle overlaps the polygon at all."""
        pxmin, pymin, pxmax, pymax = self.bbox()
        if xmax < pxmin or pxmax < xmin or ymax < pymin or pymax < ymin:
            return False
        cx = np.array([[xmin], [xmax], [xmax], [xmin]])
        cy = np.array([[ymin], [ymin], [ymax], [ymax]])
        corners, crosses = self._locate(cx, cy, EPS)
        if corners.any():
            return True
        # Rectangle could fully contain the polygon.
        v0 = self.vertices[0]
        if xmin <= v0.x <= xmax and ymin <= v0.y <= ymax:
            return True
        apart = np.ones(1, dtype=bool)
        self._drop_crossed(cx, cy, crosses, apart)
        return not apart[0]

    # -- construction helpers ---------------------------------------------

    def eroded(self, margin: float) -> "Polygon2D | None":
        """Shrink the polygon inwards by ``margin`` (edge-offset erosion).

        Each edge is shifted inwards along its normal and adjacent edges are
        re-intersected.  Exact for convex polygons; a good approximation for
        the mildly non-convex outlines boards actually use.  Returns None if
        the polygon vanishes.
        """
        if margin <= 0.0:
            return self
        n = len(self.vertices)
        assert n >= 3, "__post_init__ guarantees at least 3 vertices"
        shifted: list[tuple[Vec2, Vec2]] = []
        for i in range(n):
            a = self.vertices[i]
            b = self.vertices[(i + 1) % n]
            edge = b - a
            if edge.norm() < EPS:
                continue
            # CCW polygon: the inward normal is the edge direction rotated -90 deg.
            normal = Vec2(edge.y, -edge.x).normalized() * -1.0
            shifted.append((a + normal * margin, b + normal * margin))
        m = len(shifted)
        if m < 3:
            return None
        out: list[Vec2] = []
        for i in range(m):
            p1, p2 = shifted[i]
            q1, q2 = shifted[(i + 1) % m]
            pt = _line_intersection(p1, p2, q1, q2)
            if pt is None:
                pt = p2
            out.append(pt)
        try:
            poly = Polygon2D(out)
        except ValueError:
            return None
        if poly.area() < EPS or _signed_area(out) <= 0.0:
            return None
        # Over-erosion can "evert" the polygon into a small false-positive
        # shape; genuine eroded vertices sit at least `margin` from the
        # original boundary (up to numerical slack at reflex corners).
        xs = [v.x for v in poly.vertices]
        ys = [v.y for v in poly.vertices]
        if not self.contains_points(xs, ys).all():
            return None
        for v in poly.vertices:
            if self.distance_to_boundary(v) < margin * 0.99 - EPS:
                return None
        return poly

    def distance_to_boundary(self, p: Vec2) -> float:
        """Distance from a point to the polygon's boundary (0 on it)."""
        best = math.inf
        n = len(self.vertices)
        assert n >= 3, "__post_init__ guarantees at least 3 vertices"
        for i in range(n):
            a = self.vertices[i]
            b = self.vertices[(i + 1) % n]
            ab = b - a
            denom = ab.norm_sq()
            if denom < EPS:
                best = min(best, p.distance_to(a))
                continue
            t = max(0.0, min(1.0, (p - a).dot(ab) / denom))
            best = min(best, p.distance_to(a + ab * t))
        return best

    def boundary_samples(self, spacing: float) -> list[Vec2]:
        """Points along the boundary roughly ``spacing`` apart (vertices included)."""
        if spacing <= 0.0:
            raise ValueError("spacing must be positive")
        samples: list[Vec2] = []
        n = len(self.vertices)
        assert n >= 3, "__post_init__ guarantees at least 3 vertices"
        for i in range(n):
            a = self.vertices[i]
            b = self.vertices[(i + 1) % n]
            length = a.distance_to(b)
            steps = max(1, int(math.ceil(length / spacing)))
            assert steps >= 1, "max(1, ...) keeps the step count positive"
            for s in range(steps):
                t = s / steps
                samples.append(Vec2(a.x + t * (b.x - a.x), a.y + t * (b.y - a.y)))
        return samples

    def grid_samples(self, spacing: float) -> list[Vec2]:
        """Interior points on a regular grid with the given spacing."""
        if spacing <= 0.0:
            raise ValueError("spacing must be positive")
        xmin, ymin, xmax, ymax = self.bbox()
        gx, gy = np.meshgrid(_steps(xmin, xmax, spacing), _steps(ymin, ymax, spacing))
        keep = self.contains_points(gx, gy)
        return [Vec2(x, y) for x, y in zip(gx[keep].tolist(), gy[keep].tolist())]

    @staticmethod
    def rectangle(xmin: float, ymin: float, xmax: float, ymax: float) -> "Polygon2D":
        """Axis-aligned rectangular polygon."""
        if xmax <= xmin or ymax <= ymin:
            raise ValueError("rectangle must have positive extent")
        return Polygon2D(
            [Vec2(xmin, ymin), Vec2(xmax, ymin), Vec2(xmax, ymax), Vec2(xmin, ymax)]
        )

    @staticmethod
    def regular(center: Vec2, radius: float, sides: int) -> "Polygon2D":
        """Regular polygon approximating a circle (used for round areas)."""
        if sides < 3:
            raise ValueError("need at least 3 sides")
        return Polygon2D(
            [
                center + Vec2.from_polar(radius, 2.0 * math.pi * i / sides)
                for i in range(sides)
            ]
        )


def _steps(start: float, stop: float, spacing: float) -> list[float]:
    """``start, start + spacing, ...`` up to ``stop`` (+EPS), accumulated."""
    out: list[float] = []
    v = start
    while v <= stop + EPS:
        out.append(v)
        v += spacing
    return out


def _line_intersection(p1: Vec2, p2: Vec2, q1: Vec2, q2: Vec2) -> Vec2 | None:
    """Intersection point of the infinite lines (p1,p2) and (q1,q2)."""
    d1 = p2 - p1
    d2 = q2 - q1
    denom = d1.cross(d2)
    if -EPS < denom < EPS:
        return None
    t = (q1 - p1).cross(d2) / denom
    return p1 + d1 * t

