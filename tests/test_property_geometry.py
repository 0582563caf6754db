"""Property-based tests for the geometry kernel (hypothesis)."""

import math

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
