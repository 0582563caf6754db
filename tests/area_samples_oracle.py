"""The per-margin ``Vec2`` form of the placer's area samples, kept as a test oracle.

:meth:`Polygon2D.area_samples` erodes a polygon by many margins in one
array pass and samples every eroded outline at once.  The scalar loops it
replaced live here: edge-offset erosion with its re-intersection and
eversion checks (``distance_to_boundary`` per vertex), the boundary
samples, the interior grid, and the per-margin sample set the placer used
to build.  Tests compare the batched arrays with these loops by the hex
form of every float.
"""

from __future__ import annotations

import math

import numpy as np

from repro.geometry import EPS, Polygon2D, Vec2


def signed_area(points: list[Vec2]) -> float:
    total = 0.0
    for i in range(len(points)):
        total += points[i].cross(points[(i + 1) % len(points)])
    return 0.5 * total


def line_intersection(p1: Vec2, p2: Vec2, q1: Vec2, q2: Vec2) -> Vec2 | None:
    """Intersection point of the infinite lines (p1,p2) and (q1,q2)."""
    d1 = p2 - p1
    d2 = q2 - q1
    denom = d1.cross(d2)
    if -EPS < denom < EPS:
        return None
    t = (q1 - p1).cross(d2) / denom
    return p1 + d1 * t


def distance_to_boundary(polygon: Polygon2D, p: Vec2) -> float:
    """Distance from a point to the polygon's boundary (0 on it)."""
    best = math.inf
    n = len(polygon.vertices)
    for i in range(n):
        a = polygon.vertices[i]
        b = polygon.vertices[(i + 1) % n]
        ab = b - a
        denom = ab.norm_sq()
        if denom < EPS:
            best = min(best, p.distance_to(a))
            continue
        t = max(0.0, min(1.0, (p - a).dot(ab) / denom))
        best = min(best, p.distance_to(a + ab * t))
    return best


def offset_outline(polygon: Polygon2D, margin: float) -> list[Vec2] | None:
    """Each edge of at least ``EPS`` length shifted inwards by ``margin``,
    re-intersected with the next one (None with fewer than 3 such edges)."""
    n = len(polygon.vertices)
    shifted: list[tuple[Vec2, Vec2]] = []
    for i in range(n):
        a = polygon.vertices[i]
        b = polygon.vertices[(i + 1) % n]
        edge = b - a
        if edge.norm() < EPS:
            continue
        normal = Vec2(edge.y, -edge.x).normalized() * -1.0
        shifted.append((a + normal * margin, b + normal * margin))
    m = len(shifted)
    if m < 3:
        return None
    out: list[Vec2] = []
    for i in range(m):
        p1, p2 = shifted[i]
        q1, q2 = shifted[(i + 1) % m]
        pt = line_intersection(p1, p2, q1, q2)
        out.append(p2 if pt is None else pt)
    return out


def eroded(polygon: Polygon2D, margin: float) -> Polygon2D | None:
    """Edge-offset erosion, one margin at a time (None if the polygon vanishes)."""
    if margin <= 0.0:
        return polygon
    out = offset_outline(polygon, margin)
    if out is None:
        return None
    try:
        poly = Polygon2D(out)
    except ValueError:
        return None
    if poly.area() < EPS or signed_area(out) <= 0.0:
        return None
    # Over-erosion can "evert" the outline into a small false-positive shape.
    for v in poly.vertices:
        if not polygon.contains_point(v):
            return None
    for v in poly.vertices:
        if distance_to_boundary(polygon, v) < margin * 0.99 - EPS:
            return None
    return poly


def boundary_samples(polygon: Polygon2D, spacing: float) -> list[Vec2]:
    """Points along the boundary roughly ``spacing`` apart (vertices included)."""
    samples: list[Vec2] = []
    n = len(polygon.vertices)
    for i in range(n):
        a = polygon.vertices[i]
        b = polygon.vertices[(i + 1) % n]
        steps = max(1, int(math.ceil(a.distance_to(b) / spacing)))
        for s in range(steps):
            t = s / steps
            samples.append(Vec2(a.x + t * (b.x - a.x), a.y + t * (b.y - a.y)))
    return samples


def steps(start: float, stop: float, spacing: float) -> list[float]:
    """``start, start + spacing, ...`` up to ``stop`` (+EPS), accumulated."""
    out: list[float] = []
    v = start
    while v <= stop + EPS:
        out.append(v)
        v += spacing
    return out


def grid_samples(polygon: Polygon2D, spacing: float) -> list[Vec2]:
    """Interior points on a regular grid with the given spacing, row by row."""
    xmin, ymin, xmax, ymax = polygon.bbox()
    return [
        Vec2(x, y)
        for y in steps(ymin, ymax, spacing)
        for x in steps(xmin, xmax, spacing)
        if polygon.contains_point(Vec2(x, y))
    ]


def samples_of(polygon: Polygon2D, margin: float, spacing: float) -> np.ndarray:
    """Boundary samples, centroid and coarse interior grid of the eroded area."""
    shrunk = eroded(polygon, margin)
    target = shrunk if shrunk is not None else polygon
    points = boundary_samples(target, spacing)
    points.append(target.centroid())
    xmin, _, xmax, _ = target.bbox()
    points.extend(grid_samples(target, max(spacing * 2.0, (xmax - xmin) / 8.0 or 1e-3)))
    return np.array([(p.x, p.y) for p in points], dtype=float).reshape(-1, 2)
