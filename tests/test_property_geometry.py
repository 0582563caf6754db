"""Property-based tests for the geometry kernel (hypothesis)."""

import dataclasses
import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.geometry import (
    OrientedRect,
    Placement2D,
    Polygon2D,
    Rect,
    Vec2,
    Vec3,
    normalize_angle,
)

import area_samples_oracle

coords = st.floats(min_value=-1.0, max_value=1.0, allow_nan=False, allow_infinity=False)
angles = st.floats(min_value=-10.0, max_value=10.0, allow_nan=False)
small_pos = st.floats(min_value=1e-4, max_value=0.1, allow_nan=False)


@st.composite
def vec2(draw):
    return Vec2(draw(coords), draw(coords))


@st.composite
def vec3(draw):
    return Vec3(draw(coords), draw(coords), draw(coords))


@st.composite
def placements(draw):
    return Placement2D(draw(vec2()), draw(angles))


class TestVectorInvariants:
    @given(vec2(), angles)
    def test_rotation_preserves_norm(self, v, a):
        assert math.isclose(v.rotated(a).norm(), v.norm(), abs_tol=1e-12)

    @given(vec2(), vec2())
    def test_triangle_inequality(self, a, b):
        assert (a + b).norm() <= a.norm() + b.norm() + 1e-12

    @given(vec3(), vec3())
    def test_cross_orthogonal_to_operands(self, a, b):
        c = a.cross(b)
        assert abs(c.dot(a)) < 1e-9
        assert abs(c.dot(b)) < 1e-9

    @given(vec2(), vec2())
    def test_dot_cauchy_schwarz(self, a, b):
        assert abs(a.dot(b)) <= a.norm() * b.norm() + 1e-12


class TestPlacementInvariants:
    @given(placements(), vec2())
    def test_apply_inverse_roundtrip(self, p, v):
        assert p.inverse_apply(p.apply(v)).is_close(v, tol=1e-9)

    @given(placements(), vec2(), vec2())
    def test_rigid_transform_preserves_distance(self, p, a, b):
        d0 = a.distance_to(b)
        d1 = p.apply(a).distance_to(p.apply(b))
        assert math.isclose(d0, d1, abs_tol=1e-9)

    @given(angles)
    def test_normalize_angle_range(self, a):
        n = normalize_angle(a)
        assert 0.0 <= n < 2.0 * math.pi
        assert math.isclose(math.cos(n), math.cos(a), abs_tol=1e-9)


class TestRectInvariants:
    @given(vec2(), small_pos, small_pos, vec2(), small_pos, small_pos)
    def test_overlap_symmetric(self, c1, w1, h1, c2, w2, h2):
        a = Rect.from_center(c1, w1, h1)
        b = Rect.from_center(c2, w2, h2)
        assert a.overlaps(b) == b.overlaps(a)

    @given(vec2(), small_pos, small_pos, vec2(), small_pos, small_pos)
    def test_separation_zero_iff_touching_or_overlap(self, c1, w1, h1, c2, w2, h2):
        a = Rect.from_center(c1, w1, h1)
        b = Rect.from_center(c2, w2, h2)
        if a.overlaps(b):
            assert a.separation(b) == 0.0

    @given(vec2(), small_pos, small_pos, st.floats(min_value=0, max_value=0.05))
    def test_inflate_monotone(self, c, w, h, margin):
        r = Rect.from_center(c, w, h)
        grown = r.inflated(margin)
        assert grown.area() >= r.area()

    @given(vec2(), small_pos, small_pos, angles)
    def test_oriented_aabb_contains_corners(self, c, hw, hh, rot):
        o = OrientedRect(c, hw, hh, rot)
        box = o.aabb()
        for corner in o.corners():
            assert box.contains_point(corner, tol=1e-9)

    @given(vec2(), small_pos, small_pos, angles)
    def test_oriented_area_invariant(self, c, hw, hh, rot):
        assert math.isclose(
            OrientedRect(c, hw, hh, rot).area(),
            OrientedRect(c, hw, hh, 0.0).area(),
            rel_tol=1e-12,
        )


class TestPolygonInvariants:
    @settings(max_examples=30)
    @given(
        st.lists(
            st.tuples(
                st.floats(min_value=-0.5, max_value=0.5),
                st.floats(min_value=-0.5, max_value=0.5),
            ),
            min_size=3,
            max_size=8,
            unique=True,
        )
    )
    def test_convex_hull_polygon_contains_points(self, pts):
        from repro.geometry import convex_hull

        vecs = [Vec2(x, y) for x, y in pts]
        hull = convex_hull(vecs)
        if len(hull) < 3:
            return  # collinear input
        poly = Polygon2D(hull)
        if poly.area() < 1e-6:
            return  # numerically degenerate sliver; containment is moot
        for v in vecs:
            assert poly.contains_point(v, tol=1e-7)

    @given(
        st.floats(min_value=0.02, max_value=0.5),
        st.floats(min_value=0.02, max_value=0.5),
        st.floats(min_value=0.0, max_value=0.009),
    )
    def test_erosion_shrinks_area(self, w, h, margin):
        poly = Polygon2D.rectangle(0.0, 0.0, w, h)
        eroded = poly.eroded(margin)
        assert eroded is not None
        assert eroded.area() <= poly.area() + 1e-12

    @given(st.floats(min_value=0.05, max_value=0.5))
    def test_centroid_inside_rectangle(self, size):
        poly = Polygon2D.rectangle(0.0, 0.0, size, size * 0.5)
        assert poly.contains_point(poly.centroid())


# -- batch rectangle containment against a plain-Python oracle ----------------

EPS = 1e-9


def oracle_contains_point(vertices, px, py, tol=EPS):
    inside = False
    n = len(vertices)
    for i in range(n):
        ax, ay = vertices[i]
        bx, by = vertices[(i + 1) % n]
        abx, aby = bx - ax, by - ay
        apx, apy = px - ax, py - ay
        if abs(abx * apy - aby * apx) <= tol * max(1.0, math.hypot(abx, aby)):
            t = apx * abx + apy * aby
            if -tol <= t <= abx * abx + aby * aby + tol:
                return True
        if (ay > py) != (by > py):
            crossing = (py - ay) * abx - (px - ax) * aby
            if (crossing > 0.0) if aby > 0.0 else (crossing < 0.0):
                inside = not inside
    return inside


def oracle_proper_crossing(a, b, c, d):
    def cross(o, p, q):
        return (p[0] - o[0]) * (q[1] - o[1]) - (p[1] - o[1]) * (q[0] - o[0])

    d1, d2 = cross(a, b, c), cross(a, b, d)
    d3, d4 = cross(c, d, a), cross(c, d, b)
    return ((d1 > EPS and d2 < -EPS) or (d1 < -EPS and d2 > EPS)) and (
        (d3 > EPS and d4 < -EPS) or (d3 < -EPS and d4 > EPS)
    )


def oracle_contains_rect(vertices, x0, y0, x1, y1):
    corners = [(x0, y0), (x1, y0), (x1, y1), (x0, y1)]
    if not all(oracle_contains_point(vertices, x, y) for x, y in corners):
        return False
    n = len(vertices)
    return not any(
        oracle_proper_crossing(vertices[i], vertices[(i + 1) % n], corners[k], corners[(k + 1) % 4])
        for i in range(n)
        for k in range(4)
    )


@st.composite
def star_polygons(draw):
    """Simple polygons, star-shaped about the origin: convex or concave."""
    n = draw(st.integers(min_value=3, max_value=9))
    step = 2.0 * math.pi / n
    jitter = st.floats(min_value=0.0, max_value=0.8)
    radii = st.floats(min_value=0.2, max_value=1.0)
    convex = draw(st.booleans())
    r = draw(radii)
    out = []
    for i in range(n):
        angle = step * (i + draw(jitter))
        radius = r if convex else draw(radii)
        out.append((radius * math.cos(angle), radius * math.sin(angle)))
    return out


@st.composite
def grid_polygons(draw):
    """Rectilinear L, U and notch shapes on a 0.25 grid (exact coincidences)."""
    g = 0.25
    w = draw(st.integers(min_value=3, max_value=8)) * g
    h = draw(st.integers(min_value=3, max_value=8)) * g
    cx = draw(st.integers(min_value=1, max_value=int(w / g) - 1)) * g
    cy = draw(st.integers(min_value=1, max_value=int(h / g) - 1)) * g
    shape = draw(st.sampled_from(("L", "U", "rect")))
    if shape == "L":
        return [(0.0, 0.0), (w, 0.0), (w, cy), (cx, cy), (cx, h), (0.0, h)]
    if shape == "U":
        c2 = min(w - g, cx + g)
        return [(0.0, 0.0), (w, 0.0), (w, h), (c2, h), (c2, cy), (cx, cy), (cx, h), (0.0, h)]
    return [(0.0, 0.0), (w, 0.0), (w, h), (0.0, h)]


@st.composite
def rects_for(draw, vertices):
    """Rectangles whose coordinates are polygon vertex coordinates, grid
    points or free floats, so edges and corners often lie exactly on the
    polygon's edges and vertices."""
    xs = sorted({v[0] for v in vertices})
    ys = sorted({v[1] for v in vertices})
    lo = min(xs + ys) - 0.1
    hi = max(xs + ys) + 0.1

    def coord(values):
        return st.one_of(
            st.sampled_from(values),
            st.integers(min_value=int(lo * 4), max_value=int(hi * 4)).map(lambda k: k * 0.25),
            st.floats(min_value=lo, max_value=hi, allow_nan=False),
        )

    x0, x1 = sorted((draw(coord(xs)), draw(coord(xs))))
    y0, y1 = sorted((draw(coord(ys)), draw(coord(ys))))
    return (x0, y0, x1, y1)


class TestContainsRectsOracle:
    @settings(max_examples=150, deadline=None)
    @given(st.data(), st.one_of(star_polygons(), grid_polygons()))
    def test_batch_matches_oracle(self, data, vertices):
        poly = Polygon2D([Vec2(x, y) for x, y in vertices])
        verts = [(v.x, v.y) for v in poly.vertices]
        rects = data.draw(st.lists(rects_for(verts), min_size=1, max_size=25))
        x0, y0, x1, y1 = (list(c) for c in zip(*rects))
        got = poly.contains_rects(x0, y0, x1, y1)
        want = [oracle_contains_rect(verts, *r) for r in rects]
        assert got.tolist() == want
        assert [poly.contains_rect(*r) for r in rects] == want

    @settings(max_examples=80, deadline=None)
    @given(st.data(), st.one_of(star_polygons(), grid_polygons()))
    def test_points_match_oracle(self, data, vertices):
        poly = Polygon2D([Vec2(x, y) for x, y in vertices])
        verts = [(v.x, v.y) for v in poly.vertices]
        # Points: the lower-left corners of snapped rectangles.
        rects = data.draw(st.lists(rects_for(verts), min_size=1, max_size=25))
        xs, ys = [r[0] for r in rects], [r[1] for r in rects]
        want = [oracle_contains_point(verts, x, y) for x, y in zip(xs, ys)]
        assert poly.contains_points(xs, ys).tolist() == want
        assert [poly.contains_point(Vec2(x, y)) for x, y in zip(xs, ys)] == want

    def test_rect_on_boundary_and_vertices(self):
        l_shape = Polygon2D(
            [Vec2(0, 0), Vec2(2, 0), Vec2(2, 1), Vec2(1, 1), Vec2(1, 2), Vec2(0, 2)]
        )
        x0, y0, x1, y1 = zip(
            (0.0, 0.0, 2.0, 1.0),
            (0.0, 0.0, 1.0, 2.0),
            (0.0, 1.0, 1.0, 2.0),
            (1.0, 1.0, 2.0, 1.0),
            (0.5, 0.5, 1.5, 1.5),
        )
        got = l_shape.contains_rects(x0, y0, x1, y1)
        # Full lower arm, full left arm, upper-left square, a degenerate
        # rectangle on the notch edge (inside), one crossing the notch.
        assert got.tolist() == [True, True, True, True, False]


# -- edge-major kernels against the former broadcast implementation ----------
#
# The predicates run edge-major: one pass of elementwise ops per polygon
# edge, sharing each corner's side of each edge line between the point test
# and the crossing test.  The former implementation broadcast every point
# against every edge at once; it stays here as the oracle, and the two must
# return the same booleans (the arithmetic is the same, so no tolerance).


def _edge_arrays(poly):
    xs = [v.x for v in poly.vertices]
    ys = [v.y for v in poly.vertices]
    return np.array(xs), np.array(ys), np.array(xs[1:] + xs[:1]), np.array(ys[1:] + ys[:1])


def _segments_properly_intersect(ax, ay, bx, by, cx, cy, dx, dy):
    abx = np.subtract(bx, ax)
    aby = np.subtract(by, ay)
    d1 = abx * np.subtract(cy, ay) - aby * np.subtract(cx, ax)
    d2 = abx * np.subtract(dy, ay) - aby * np.subtract(dx, ax)
    cdx = np.subtract(dx, cx)
    cdy = np.subtract(dy, cy)
    d3 = cdx * np.subtract(ay, cy) - cdy * np.subtract(ax, cx)
    d4 = cdx * np.subtract(by, cy) - cdy * np.subtract(bx, cx)
    return (((d1 > EPS) & (d2 < -EPS)) | ((d1 < -EPS) & (d2 > EPS))) & (
        ((d3 > EPS) & (d4 < -EPS)) | ((d3 < -EPS) & (d4 > EPS))
    )


def broadcast_contains_points(poly, xs, ys, tol=EPS):
    px, py = np.broadcast_arrays(np.asarray(xs, dtype=float), np.asarray(ys, dtype=float))
    px, py = px[..., None], py[..., None]
    ax, ay, bx, by = _edge_arrays(poly)
    abx = bx - ax
    aby = by - ay
    apx = px - ax
    apy = py - ay
    cross = abx * apy - aby * apx
    t = apx * abx + apy * aby
    scale = np.array([max(1.0, math.hypot(x, y)) for x, y in zip(abx.tolist(), aby.tolist())])
    on_edge = (np.abs(cross) <= tol * scale) & (-tol <= t) & (t <= abx * abx + aby * aby + tol)
    straddles = (ay > py) != (by > py)
    crossing = apy * abx - apx * aby
    crosses = straddles & np.where(aby > 0.0, crossing > 0.0, crossing < 0.0)
    return on_edge.any(axis=-1) | (np.count_nonzero(crosses, axis=-1) % 2 == 1)


def broadcast_contains_rects(poly, xmin, ymin, xmax, ymax):
    x0, y0, x1, y1 = np.broadcast_arrays(
        *(np.atleast_1d(np.asarray(v, dtype=float)) for v in (xmin, ymin, xmax, ymax))
    )
    cx = np.stack([x0, x1, x1, x0])
    cy = np.stack([y0, y0, y1, y1])
    inside = broadcast_contains_points(poly, cx, cy).all(axis=0)
    rows = np.flatnonzero(inside)
    if rows.size:
        cx, cy = cx[:, rows], cy[:, rows]
        dx, dy = cx[[1, 2, 3, 0]], cy[[1, 2, 3, 0]]
        ax, ay, bx, by = (e[:, None, None] for e in _edge_arrays(poly))
        crossed = _segments_properly_intersect(ax, ay, bx, by, cx, cy, dx, dy)
        inside[rows] = ~crossed.any(axis=(0, 1))
    return inside


def broadcast_intersects_rect(poly, xmin, ymin, xmax, ymax):
    pxmin, pymin, pxmax, pymax = poly.bbox()
    if xmax < pxmin or pxmax < xmin or ymax < pymin or pymax < ymin:
        return False
    cx = np.array([xmin, xmax, xmax, xmin])
    cy = np.array([ymin, ymin, ymax, ymax])
    if broadcast_contains_points(poly, cx, cy).any():
        return True
    v0 = poly.vertices[0]
    if xmin <= v0.x <= xmax and ymin <= v0.y <= ymax:
        return True
    dx, dy = cx[[1, 2, 3, 0]], cy[[1, 2, 3, 0]]
    ax, ay, bx, by = (e[:, None] for e in _edge_arrays(poly))
    return bool(_segments_properly_intersect(ax, ay, bx, by, cx, cy, dx, dy).any())


@st.composite
def quantised_polygons(draw):
    """Star-shaped (convex or concave) and rectilinear polygons with every
    coordinate rounded to 1-3 decimals, so that horizontal edges, collinear
    vertices and exact coincidences occur often."""
    decimals = draw(st.integers(min_value=1, max_value=3))
    vertices = draw(st.one_of(star_polygons(), grid_polygons()))
    return decimals, [(round(x, decimals), round(y, decimals)) for x, y in vertices]


@st.composite
def quantised_coords(draw, values, decimals, lo, hi):
    """A coordinate: a vertex coordinate, an edge midpoint coordinate, a
    value on the polygon's quantisation grid, or a free float."""
    step = 10.0**-decimals
    return draw(
        st.one_of(
            st.sampled_from(values),
            st.integers(min_value=round(lo / step), max_value=round(hi / step)).map(
                lambda k: round(k * step, decimals)
            ),
            st.floats(min_value=lo, max_value=hi, allow_nan=False),
        )
    )


def _probe_points(data, verts, decimals):
    xs = sorted({v[0] for v in verts})
    ys = sorted({v[1] for v in verts})
    mids = [
        (0.5 * (a[0] + b[0]), 0.5 * (a[1] + b[1])) for a, b in zip(verts, verts[1:] + verts[:1])
    ]
    xs += [m[0] for m in mids]
    ys += [m[1] for m in mids]
    lo, hi = min(xs + ys) - 0.2, max(xs + ys) + 0.2
    n = data.draw(st.integers(min_value=1, max_value=30))
    px = [data.draw(quantised_coords(xs, decimals, lo, hi)) for _ in range(n)]
    py = [data.draw(quantised_coords(ys, decimals, lo, hi)) for _ in range(n)]
    return px, py


class TestEdgeMajorEquivalence:
    @settings(max_examples=200, deadline=None)
    @given(st.data(), quantised_polygons())
    def test_points_match_broadcast(self, data, polygon):
        decimals, vertices = polygon
        poly = Polygon2D([Vec2(x, y) for x, y in vertices])
        verts = [(v.x, v.y) for v in poly.vertices]
        px, py = _probe_points(data, verts, decimals)
        for tol in (EPS, 10.0**-decimals):
            got = poly.contains_points(px, py, tol)
            assert got.tolist() == broadcast_contains_points(poly, px, py, tol).tolist()
        grid = np.array(px)[:, None], np.array(py)[None, :]
        got = poly.contains_points(*grid)
        assert got.shape == (len(px), len(py))
        assert got.tolist() == broadcast_contains_points(poly, *grid).tolist()

    @settings(max_examples=200, deadline=None)
    @given(st.data(), quantised_polygons())
    def test_rects_match_broadcast(self, data, polygon):
        decimals, vertices = polygon
        poly = Polygon2D([Vec2(x, y) for x, y in vertices])
        verts = [(v.x, v.y) for v in poly.vertices]
        ax, ay = _probe_points(data, verts, decimals)
        bx, by = _probe_points(data, verts, decimals)
        n = min(len(ax), len(bx))
        x0, x1 = np.minimum(ax[:n], bx[:n]), np.maximum(ax[:n], bx[:n])
        y0, y1 = np.minimum(ay[:n], by[:n]), np.maximum(ay[:n], by[:n])
        got = poly.contains_rects(x0, y0, x1, y1)
        assert got.tolist() == broadcast_contains_rects(poly, x0, y0, x1, y1).tolist()
        for r in zip(x0.tolist(), y0.tolist(), x1.tolist(), y1.tolist()):
            assert poly.intersects_rect(*r) == broadcast_intersects_rect(poly, *r)

    def test_rotated_l_notch_between_inside_corners(self):
        # The L of test_rect_on_boundary_and_vertices mapped by
        # (x, y) -> (x - y, x + y): its reflex vertex (0, 2) points up into
        # the rectangle, whose four corners all lie in the two arms.
        l_shape = Polygon2D(
            [Vec2(0, 0), Vec2(2, 2), Vec2(1, 3), Vec2(0, 2), Vec2(-1, 3), Vec2(-2, 2)]
        )
        rect = (-0.9, 1.5, 0.9, 2.6)
        corners = ([-0.9, 0.9, 0.9, -0.9], [1.5, 1.5, 2.6, 2.6])
        assert l_shape.contains_points(*corners).all()
        assert not l_shape.contains_point(Vec2(0.0, 2.6))  # in the notch
        assert l_shape.contains_rects(*rect).tolist() == [False]
        assert broadcast_contains_rects(l_shape, *rect).tolist() == [False]
        assert not oracle_contains_rect([(v.x, v.y) for v in l_shape.vertices], *rect)
        # Below the notch vertex the same width fits.
        assert l_shape.contains_rects(-0.9, 1.5, 0.9, 1.9).tolist() == [True]

    def test_rects_reaching_into_a_slot(self):
        # A U with a slot x in [0.75, 1], y >= 0.75.  The first two rectangles
        # reach into the slot from one side each: only their bottom edge
        # crosses a slot side (their top edge meets the slot's end vertex),
        # once in each direction of the rectangle edge against the polygon
        # edge.  The third spans the slot, the fourth stays below it.
        u_shape = Polygon2D(
            [
                Vec2(0, 0),
                Vec2(1.5, 0),
                Vec2(1.5, 1.5),
                Vec2(1.0, 1.5),
                Vec2(1.0, 0.75),
                Vec2(0.75, 0.75),
                Vec2(0.75, 1.5),
                Vec2(0, 1.5),
            ]
        )
        rects = [
            (0.75, 1.25, 1.25, 1.5),
            (0.5, 1.25, 1.0, 1.5),
            (0.5, 1.0, 1.25, 1.25),
            (0.5, 0.25, 1.25, 0.75),
        ]
        x0, y0, x1, y1 = (list(c) for c in zip(*rects))
        want = [False, False, False, True]
        assert u_shape.contains_rects(x0, y0, x1, y1).tolist() == want
        assert broadcast_contains_rects(u_shape, x0, y0, x1, y1).tolist() == want
        verts = [(v.x, v.y) for v in u_shape.vertices]
        assert [oracle_contains_rect(verts, *r) for r in rects] == want

    def test_corners_exactly_eps_from_a_spike_stay_inside(self):
        # A zero-width spike W -> T -> W along y = 0 reaches 2**-28 into the
        # rectangle; the rectangle's top corners lie exactly EPS above it
        # (each corner's side value is +EPS for W -> T and -EPS for T -> W).
        # The spike has no area, so the rectangle is inside: a proper
        # crossing needs side values beyond EPS, not at it.
        w, t = -0.5 + 2.0**-28, 0.5 + 2.0**-28
        spike = Polygon2D(
            [Vec2(w, -2), Vec2(2, -2), Vec2(2, 2), Vec2(w, 2), Vec2(w, 0), Vec2(t, 0), Vec2(w, 0)]
        )
        rect = (0.5, -1.0, 1.5, EPS)
        assert spike.contains_rects(*rect).tolist() == [True]
        assert broadcast_contains_rects(spike, *rect).tolist() == [True]
        assert oracle_contains_rect([(v.x, v.y) for v in spike.vertices], *rect)
        # One ulp higher, the corners are beyond EPS and the spike crosses.
        rect = (0.5, -1.0, 1.5, math.nextafter(EPS, 1.0))
        assert spike.contains_rects(*rect).tolist() == [False]
        assert broadcast_contains_rects(spike, *rect).tolist() == [False]

    @settings(max_examples=150, deadline=None)
    @given(
        quantised_polygons(),
        # Multiples of 1/8 erode the 0.25-grid shapes' arms to lines exactly.
        st.lists(
            st.one_of(st.floats(min_value=0.0, max_value=0.6), st.sampled_from([0.125, 0.25])),
            min_size=1,
            max_size=4,
        ),
        st.sampled_from([0.05, 0.1]),
    )
    def test_erosion_and_grid_samples_bit_identical(self, polygon, margins, spacing):
        # The batched erosion and sampling against the per-margin Vec2
        # loops, whose containment tests run on the broadcast oracle.
        _, vertices = polygon
        poly = Polygon2D([Vec2(x, y) for x, y in vertices])

        def hexes(points):
            return [(x.hex(), y.hex()) for x, y in points]

        def outline(eroded):
            return None if eroded is None else hexes((v.x, v.y) for v in eroded.vertices)

        got = (
            [outline(poly.eroded(m)) for m in margins],
            hexes((p.x, p.y) for p in poly.grid_samples(0.05)),
            [hexes(a.tolist()) for a in poly.area_samples(margins, spacing)],
        )
        with mock.patch.object(Polygon2D, "contains_points", broadcast_contains_points):
            want = (
                [outline(area_samples_oracle.eroded(poly, m)) for m in margins],
                hexes((p.x, p.y) for p in area_samples_oracle.grid_samples(poly, 0.05)),
                [
                    hexes(area_samples_oracle.samples_of(poly, m, spacing).tolist())
                    for m in margins
                ],
            )
        assert got == want

    def test_polygon_is_immutable(self):
        poly = Polygon2D([Vec2(1, 0), Vec2(0, 0), Vec2(0, 1)])  # clockwise in
        assert isinstance(poly.vertices, tuple)
        assert poly.vertices == (Vec2(0, 1), Vec2(0, 0), Vec2(1, 0))
        with pytest.raises(dataclasses.FrozenInstanceError):
            poly.vertices = (Vec2(0, 0), Vec2(2, 0), Vec2(0, 2))
        assert poly == Polygon2D([Vec2(0, 1), Vec2(0, 0), Vec2(1, 0)])
        assert hash(poly) == hash(Polygon2D(poly.vertices))
