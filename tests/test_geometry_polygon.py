"""Unit tests for polygons (placement areas)."""

import math

import pytest

from repro.geometry import Polygon2D, Vec2, convex_hull


def unit_square() -> Polygon2D:
    return Polygon2D.rectangle(0.0, 0.0, 1.0, 1.0)


def l_shape() -> Polygon2D:
    return Polygon2D(
        [
            Vec2(0.0, 0.0),
            Vec2(2.0, 0.0),
            Vec2(2.0, 1.0),
            Vec2(1.0, 1.0),
            Vec2(1.0, 2.0),
            Vec2(0.0, 2.0),
        ]
    )


class TestConstruction:
    def test_needs_three_vertices(self):
        with pytest.raises(ValueError):
            Polygon2D([Vec2(0, 0), Vec2(1, 0)])

    def test_closing_repeat_is_dropped(self):
        square = [Vec2(0, 0), Vec2(10, 0), Vec2(10, 10), Vec2(0, 10)]
        closed = Polygon2D([*square, square[0]])
        assert closed == Polygon2D(square)
        assert closed.vertices == tuple(square)
        assert closed.contains_point(Vec2(5, 5))
        assert not closed.contains_point(Vec2(15, 5))

    def test_consecutive_repeats_are_dropped(self):
        # A zero-length edge would put every point "on" the boundary.
        u_shape = [
            Vec2(0, 0), Vec2(1, 0), Vec2(1, 0.75), Vec2(0.75, 0.75),
            Vec2(0.75, 0.25), Vec2(0.75, 0.25), Vec2(0.75, 0.75), Vec2(0, 0.75),
        ]
        poly = Polygon2D(u_shape)
        assert len(poly.vertices) == 7
        assert not poly.contains_point(Vec2(0.25, 1.0))
        assert poly.contains_point(Vec2(0.25, 0.5))

    def test_needs_three_distinct_vertices(self):
        with pytest.raises(ValueError, match="3 distinct vertices"):
            Polygon2D([Vec2(0, 0), Vec2(1, 0), Vec2(1, 0), Vec2(0, 0)])
        with pytest.raises(ValueError, match="3 distinct vertices"):
            Polygon2D([Vec2(1, 1)] * 3)

    def test_cw_input_normalised_to_ccw(self):
        cw = Polygon2D([Vec2(0, 0), Vec2(0, 1), Vec2(1, 1), Vec2(1, 0)])
        ccw = unit_square()
        assert cw.area() == pytest.approx(ccw.area())
        # Signed area of stored vertices must be positive for both.
        assert cw.centroid().is_close(ccw.centroid())

    def test_rectangle_invalid_extent(self):
        with pytest.raises(ValueError):
            Polygon2D.rectangle(0.0, 0.0, 0.0, 1.0)


class TestMeasures:
    def test_square_area(self):
        assert unit_square().area() == pytest.approx(1.0)

    def test_l_shape_area(self):
        assert l_shape().area() == pytest.approx(3.0)

    def test_perimeter(self):
        assert unit_square().perimeter() == pytest.approx(4.0)

    def test_centroid_square(self):
        assert unit_square().centroid().is_close(Vec2(0.5, 0.5))

    def test_bbox(self):
        assert l_shape().bbox() == (0.0, 0.0, 2.0, 2.0)

    def test_regular_polygon_approximates_circle(self):
        poly = Polygon2D.regular(Vec2(0.0, 0.0), 1.0, 64)
        assert poly.area() == pytest.approx(math.pi, rel=0.01)


class TestContainment:
    def test_interior_point(self):
        assert unit_square().contains_point(Vec2(0.5, 0.5))

    def test_exterior_point(self):
        assert not unit_square().contains_point(Vec2(1.5, 0.5))

    def test_boundary_point_counts_inside(self):
        assert unit_square().contains_point(Vec2(1.0, 0.5))

    def test_vertex_counts_inside(self):
        assert unit_square().contains_point(Vec2(0.0, 0.0))

    def test_l_shape_notch_excluded(self):
        assert not l_shape().contains_point(Vec2(1.5, 1.5))

    def test_contains_rect_inside(self):
        assert unit_square().contains_rect(0.1, 0.1, 0.9, 0.9)

    def test_contains_rect_crossing_boundary(self):
        assert not unit_square().contains_rect(0.5, 0.5, 1.5, 0.9)

    def test_contains_rect_in_l_notch(self):
        # A rect inside the notch region must be rejected outright.
        assert not l_shape().contains_rect(1.2, 1.2, 1.8, 1.8)

    def test_intersects_rect(self):
        assert unit_square().intersects_rect(0.9, 0.9, 2.0, 2.0)
        assert not unit_square().intersects_rect(1.1, 1.1, 2.0, 2.0)

    def test_rect_containing_polygon_intersects(self):
        assert unit_square().intersects_rect(-1.0, -1.0, 2.0, 2.0)


class TestErosion:
    def test_eroded_square_area(self):
        inner = unit_square().eroded(0.1)
        assert inner is not None
        assert inner.area() == pytest.approx(0.64, rel=1e-6)

    def test_erosion_too_large_returns_none(self):
        assert unit_square().eroded(0.6) is None

    def test_zero_margin_is_copy(self):
        same = unit_square().eroded(0.0)
        assert same is not None
        assert same.area() == pytest.approx(1.0)

    def test_eroded_contains_only_interior(self):
        inner = unit_square().eroded(0.2)
        assert inner is not None
        assert inner.contains_point(Vec2(0.5, 0.5))
        assert not inner.contains_point(Vec2(0.1, 0.1))


class TestSampling:
    def test_boundary_samples_on_boundary(self):
        # Margin 0 samples the square itself: 4 edges in 4 steps each, from
        # the start vertex, then the centroid.
        pts = unit_square().area_samples([0.0], 0.25)[0]
        assert pts[:16].tolist() == [
            [t, 0.0] for t in (0.0, 0.25, 0.5, 0.75)
        ] + [[1.0, t] for t in (0.0, 0.25, 0.5, 0.75)] + [
            [1.0 - t, 1.0] for t in (0.0, 0.25, 0.5, 0.75)
        ] + [[0.0, 1.0 - t] for t in (0.0, 0.25, 0.5, 0.75)]
        assert pts[16].tolist() == [0.5, 0.5]

    def test_grid_samples_inside(self):
        pts = unit_square().grid_samples(0.3)
        assert pts
        assert all(unit_square().contains_point(p) for p in pts)

    def test_bad_spacing_raises(self):
        with pytest.raises(ValueError):
            unit_square().area_samples([0.1], 0.0)
        with pytest.raises(ValueError):
            unit_square().grid_samples(-1.0)


class TestConvexHull:
    def test_hull_of_square_plus_interior(self):
        pts = [Vec2(0, 0), Vec2(1, 0), Vec2(1, 1), Vec2(0, 1), Vec2(0.5, 0.5)]
        hull = convex_hull(pts)
        assert len(hull) == 4

    def test_hull_collinear(self):
        pts = [Vec2(0, 0), Vec2(1, 1), Vec2(2, 2)]
        hull = convex_hull(pts)
        assert len(hull) <= 2 or all(p.x == p.y for p in hull)
