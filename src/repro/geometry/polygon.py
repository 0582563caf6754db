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
from collections.abc import Iterable, Iterator, Sequence
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
#: on-edge scale ``max(1, |ab|)``, ``|ab|^2`` and the sign of ``aby`` (None
#: for a horizontal edge), all Python floats.
_Edge = tuple[float, float, float, float, float, float, float, float, float | None]


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
            rise = None if a.y == b.y else (1.0 if aby > 0.0 else -1.0)
            edges.append((a.x, a.y, b.x, b.y, abx, aby, scale, abx * abx + aby * aby, rise))
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

    def _drop_crossed(
        self, cx: np.ndarray, cy: np.ndarray, crosses: list[np.ndarray], keep: np.ndarray
    ) -> None:
        """Clear ``keep`` for each rectangle (a column of the (4, M) corners,
        counter-clockwise; corner k -> k+1 is its edge k) whose edges cross
        a polygon edge at a single interior point of both.  ``crosses`` are
        the corners' sides of each edge line (from :func:`_locate`); only a
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
        return _locate(px, py, tol, self._edges)[0]

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
        corners, crosses = _locate(cx, cy, EPS, self._edges)
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
        corners, crosses = _locate(cx, cy, EPS, self._edges)
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
        the polygon vanishes.  One row of :meth:`_erode`.
        """
        if margin <= 0.0:
            return self
        x, y, kept = self._erode(np.array([margin]))
        if not kept[0]:
            return None
        vertices = zip(x[0].tolist(), y[0].tolist(), strict=True)
        return Polygon2D([Vec2(px, py) for px, py in vertices])

    def _erode(self, margins: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The polygon eroded by each of the (M,) margins, in one array pass.

        Returns the re-intersected vertices as (M, m) x and y arrays, m the
        number of edges of at least ``EPS`` length, and which rows are a
        genuine erosion (M,).  A row is dropped when its outline has no
        positive area (fewer than 3 edges, or turned inside out) or when it
        "everted" into a small false-positive shape: genuine eroded
        vertices lie inside the polygon and at least ``margin`` from its
        boundary (up to numerical slack at reflex corners).  Every float is
        computed by the operations of the ``Vec2`` form, so each row equals
        a one-margin erosion bit for bit.
        """
        shifted = [e for e in self._edges if math.hypot(e[4], e[5]) >= EPS]
        ax, ay, bx, by = (np.array([e[k] for e in shifted]) for k in range(4))
        # CCW polygon: the inward normal is the edge direction rotated -90 deg.
        normals = [Vec2(e[5], -e[4]).normalized() * -1.0 for e in shifted]
        nx, ny = np.array([n.x for n in normals]), np.array([n.y for n in normals])
        margin = margins[:, None]
        p1x, p1y = ax + nx * margin, ay + ny * margin
        p2x, p2y = bx + nx * margin, by + ny * margin
        if len(shifted) < 3:
            return p2x, p2y, np.zeros(len(margins), dtype=bool)
        # Each shifted edge meets the next one; parallel neighbours keep the end point.
        following = [*range(1, len(shifted)), 0]
        d1x, d1y = p2x - p1x, p2y - p1y
        q1x, q1y = p1x[:, following], p1y[:, following]
        d2x, d2y = d1x[:, following], d1y[:, following]
        denom = d1x * d2y - d1y * d2x
        parallel = (-EPS < denom) & (denom < EPS)
        cut = np.where(parallel, 1.0, denom)  # |denom| >= EPS wherever it is used
        t = ((q1x - p1x) * d2y - (q1y - p1y) * d2x) / cut
        x = np.where(parallel, p2x, p1x + d1x * t)
        y = np.where(parallel, p2y, p1y + d1y * t)

        cross = x * y[:, following] - y * x[:, following]
        kept = (margins > 0.0) & (0.5 * _running_sum(cross) >= EPS)
        kept &= _locate(x, y, EPS, self._edges)[0].all(axis=1)
        # distance_to_boundary of every vertex: its distance to each edge
        # (n, M, m), a point-like edge measured from its start.
        columns = list(zip(*self._edges))[:8]
        ex, ey, _, _, abx, aby, _, len_sq = (np.array(c)[:, None, None] for c in columns)
        dx, dy = x - ex, y - ey
        point = len_sq < EPS
        reach = np.where(point, 1.0, len_sq)  # >= EPS
        t = np.clip((dx * abx + dy * aby) / reach, 0.0, 1.0)
        t = np.where(point, 0.0, t)
        distance = _hypot(x - (ex + abx * t), y - (ey + aby * t))
        kept &= ~(distance < (margins * 0.99 - EPS)[:, None]).any(axis=(0, 2))
        return x, y, kept

    def area_samples(self, margins: Sequence[float], spacing: float) -> list[np.ndarray]:
        """Candidate points of the polygon eroded by each margin, as one
        (n, 2) array per margin.

        Each array holds the eroded outline's boundary samples (every edge
        cut into ``ceil(length / spacing)`` equal steps from its start
        vertex), its centroid, then the points inside it of a grid of pitch
        ``max(2 * spacing, width / 8)`` from its bounding box's lower-left
        corner, row by row.  Where the erosion vanishes (see
        :meth:`eroded`) the polygon itself is sampled.  All margins share
        one array pass over (margins x edges), and each array equals the
        one that margin gives alone, bit for bit.
        """
        if spacing <= 0.0:
            raise ValueError("spacing must be positive")
        margin = np.asarray(margins, dtype=float).reshape(-1)
        count = len(margin)
        x, y, kept = self._erode(margin)
        # One vertex row per margin: the eroded outline, padded to the
        # polygon's vertex count by repeating its last vertex (a dead
        # edge), or the polygon itself where the erosion vanished.
        rx = np.tile([v.x for v in self.vertices], (count, 1))
        ry = np.tile([v.y for v in self.vertices], (count, 1))
        own = self.centroid()
        cx, cy = np.full(count, own.x), np.full(count, own.y)
        if kept.any():
            m = x.shape[1]
            pad = [*range(m), *[m - 1] * (rx.shape[1] - m)]
            rx[kept], ry[kept] = x[kept][:, pad], y[kept][:, pad]
            cx[kept], cy[kept] = _centroids(rx[kept], ry[kept])
        rings = _Rings(rx, ry)
        boundary, boundary_row = rings.boundary_samples(spacing)
        width = (rx.max(axis=1) - rx.min(axis=1)) / 8.0
        grid, grid_row = rings.grid(np.maximum(spacing * 2.0, np.where(width > 0.0, width, 1e-3)))

        points = np.concatenate([boundary, np.stack([cx, cy], axis=1), grid])
        row = np.concatenate([boundary_row, np.arange(count), grid_row])
        order = np.argsort(row, kind="stable")
        return np.split(points[order], np.cumsum(np.bincount(row, minlength=count)))[:-1]

    def grid_samples(self, spacing: float) -> list[Vec2]:
        """Interior points on a regular grid with the given spacing, row by
        row from the bounding box's lower-left corner."""
        if spacing <= 0.0:
            raise ValueError("spacing must be positive")
        rings = _Rings(
            np.array([[v.x for v in self.vertices]]), np.array([[v.y for v in self.vertices]])
        )
        points, _ = rings.grid(np.array([spacing]))
        return [Vec2(x, y) for x, y in points.tolist()]

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


class _Rings:
    """Closed polygons as vertex rows: row r runs through ``(x[r, k], y[r, k])``.

    A vertex equal to its successor makes a dead edge, which the methods
    skip as :class:`Polygon2D` drops the repeated vertex, so rows of
    different vertex counts share one (R, K) array.  Each method repeats
    the float operations of the one-polygon form it is named after.
    """

    def __init__(self, x: np.ndarray, y: np.ndarray) -> None:
        self.x, self.y = x, y
        following = [*range(1, x.shape[1]), 0]
        self.bx, self.by = x[:, following], y[:, following]
        self.dx, self.dy = self.bx - x, self.by - y
        self.length = _hypot(self.dx, self.dy)
        self.live = (self.bx != x) | (self.by != y)

    def boundary_samples(self, spacing: float) -> tuple[np.ndarray, np.ndarray]:
        """Each live edge in ``max(1, ceil(length / spacing))`` equal steps
        from its start vertex, as (N, 2) points row by row and their row ids."""
        cuts = np.ceil(self.length / spacing)  # spacing > 0
        steps = np.where(self.live, np.maximum(cuts, 1.0), 0.0)
        steps = steps.astype(np.int64).ravel()
        edge = np.repeat(np.arange(steps.size), steps)
        taken = np.arange(edge.size) - (np.cumsum(steps) - steps)[edge]
        t = taken / steps[edge]
        ax, ay = self.x.ravel()[edge], self.y.ravel()[edge]
        px = ax + t * self.dx.ravel()[edge]
        py = ay + t * self.dy.ravel()[edge]
        row = np.repeat(np.arange(self.x.shape[0]).repeat(self.x.shape[1]), steps)
        return np.stack([px, py], axis=1), row

    def grid(self, step: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """:meth:`Polygon2D.grid_samples` of each row at its own pitch
        ``step[r]``: the (N, 2) points row by row, and their row ids."""
        xs, x_live = _steps(self.x.min(axis=1), self.x.max(axis=1), step)
        ys, y_live = _steps(self.y.min(axis=1), self.y.max(axis=1), step)
        px, py = np.broadcast_arrays(xs[:, None, :], ys[:, :, None])
        inside = _locate(px, py, EPS, self.edges(px.ndim))[0]
        keep = y_live[:, :, None] & x_live[:, None, :] & inside
        row, j, i = np.nonzero(keep)
        return np.stack([xs[row, i], ys[row, j]], axis=1), row

    def edges(self, ndim: int) -> Iterator[tuple[np.ndarray, ...]]:
        """The edge columns :func:`_locate` reads, each row's value shaped
        to broadcast over its points ``[r, ...]`` (``ndim`` dimensions)."""
        shape = (self.x.shape[1], -1) + (1,) * (ndim - 1)
        scale = np.maximum(1.0, self.length)
        # A dead edge reaches nowhere, so no point lies on it.
        len_sq = np.where(self.live, self.dx * self.dx + self.dy * self.dy, -1.0)
        rise = np.where(self.dy > 0.0, 1.0, -1.0)
        columns = (self.x, self.y, self.bx, self.by, self.dx, self.dy, scale, len_sq, rise)
        return zip(*(a.T.reshape(shape) for a in columns))


def _locate(
    px: np.ndarray, py: np.ndarray, tol: float, edges: Iterable[tuple]
) -> tuple[np.ndarray, list[np.ndarray]]:
    """Inside-or-on-boundary flags of the points, and each edge's cross
    product ``ab x ap`` at every point (> 0 left of the edge line).

    Edge-major: one pass per edge (a :data:`_Edge`, or :meth:`_Rings.edges`
    columns) of elementwise ops over all points.  A point is on an edge
    when it lies within ``tol`` of it (scaled by the edge length);
    otherwise a horizontal ray towards +x decides by parity.  The ray test
    is division-free: 'x_int > p.x' is the sign of the same cross product,
    oriented by the edge's y direction, and horizontal edges never
    straddle the ray.
    """
    on_edge = np.zeros(px.shape, dtype=bool)
    odd = np.zeros(px.shape, dtype=bool)
    crosses: list[np.ndarray] = []
    for ax, ay, _bx, by, abx, aby, scale, len_sq, rise in edges:
        apx = px - ax
        apy = py - ay
        cross = abx * apy - aby * apx
        t = apx * abx + apy * aby
        on_edge |= (np.abs(cross) <= tol * scale) & (-tol <= t) & (t <= len_sq + tol)
        if rise is not None:
            straddles = (ay > py) != (by > py)
            odd ^= straddles & (cross * rise > 0.0)
        crosses.append(cross)
    return on_edge | odd, crosses


def _centroids(x: np.ndarray, y: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """:meth:`Polygon2D.centroid` of each vertex row of positive area."""
    following = [*range(1, x.shape[1]), 0]
    bx, by = x[:, following], y[:, following]
    w = x * by - y * bx
    six_area = 6.0 * (0.5 * _running_sum(w))
    cx = _running_sum((x + bx) * w) / six_area  # area >= EPS
    cy = _running_sum((y + by) * w) / six_area
    return cx, cy


def _running_sum(a: np.ndarray) -> np.ndarray:
    """Each row's sum, added in index order as the scalar loops add it."""
    return np.add.accumulate(a, axis=1)[:, -1]


def _hypot(dx: np.ndarray, dy: np.ndarray) -> np.ndarray:
    """``math.hypot`` of each (dx, dy), shaped like ``dx``.

    ``np.hypot`` rounds differently in about 0.6 % of cases, and the
    one-polygon geometry measures with ``math.hypot``.
    """
    values = map(math.hypot, dx.ravel().tolist(), dy.ravel().tolist())
    return np.fromiter(values, dtype=float, count=dx.size).reshape(dx.shape)


def _steps(start: np.ndarray, stop: np.ndarray, step: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``start, start + step, ...`` up to ``stop`` (+EPS) for each row,
    accumulated in order: the (R, K) values and which of them are in range."""
    reach = (stop - start) / step  # step > 0
    count = int(np.max(reach, initial=0.0)) + 2
    bound = (stop + EPS)[:, None]
    while True:
        terms = np.empty((len(start), count))
        terms[:, 0] = start
        terms[:, 1:] = step[:, None]
        values = np.add.accumulate(terms, axis=1)
        live = np.logical_and.accumulate(values <= bound, axis=1)
        if not live[:, -1].any():
            return values, live
        count *= 2
