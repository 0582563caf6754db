"""Unit tests for current paths (segmented component field models)."""

import math

import numpy as np
import pytest
from filament_oracle import Filament, pack, path_of, unpack
from test_property_peec import scaled_weights

from repro.geometry import Transform3D, Vec3
from repro.peec import CurrentPath, PackedFilaments, rectangle_path, ring_path


def is_closed_loop(path):
    """Each filament starts where the previous one ends, the last at the first."""
    p = path.packed
    return bool(np.array_equal(p.starts, np.roll(p.ends, 1, axis=0)))


class TestRingPath:
    def test_segment_count(self):
        ring = ring_path(Vec3.zero(), 0.01, segments=16)
        assert len(ring) == 16

    def test_closed(self):
        ring = ring_path(Vec3.zero(), 0.01, segments=12)
        assert is_closed_loop(ring)

    def test_total_length_approximates_circumference(self):
        r = 0.01
        ring = ring_path(Vec3.zero(), r, segments=64)
        assert ring.total_length() == pytest.approx(2 * math.pi * r, rel=0.01)

    def test_magnetic_moment_z_ring(self):
        r = 0.01
        ring = ring_path(Vec3.zero(), r, segments=64)
        moment = ring.magnetic_moment()
        # |m| = area for a unit current loop.
        assert moment.z == pytest.approx(math.pi * r * r, rel=0.01)
        assert abs(moment.x) < 1e-12 and abs(moment.y) < 1e-12

    def test_axis_variants(self):
        assert ring_path(Vec3.zero(), 0.01, axis="x").magnetic_axis().is_close(
            Vec3(1, 0, 0), tol=1e-9
        )
        assert ring_path(Vec3.zero(), 0.01, axis="y").magnetic_axis().is_close(
            Vec3(0, 1, 0), tol=1e-9
        )

    def test_moment_scales_with_weight(self):
        one = ring_path(Vec3.zero(), 0.01, weight=1.0).magnetic_moment()
        five = ring_path(Vec3.zero(), 0.01, weight=5.0).magnetic_moment()
        assert five.z == pytest.approx(5.0 * one.z)

    def test_moment_translation_invariant_for_closed_loop(self):
        a = ring_path(Vec3.zero(), 0.01, segments=12).magnetic_moment()
        b = ring_path(Vec3(0.05, 0.02, 0.01), 0.01, segments=12).magnetic_moment()
        assert a.is_close(b, tol=1e-12)

    def test_invalid_args(self):
        with pytest.raises(ValueError):
            ring_path(Vec3.zero(), 0.01, segments=2)
        with pytest.raises(ValueError):
            ring_path(Vec3.zero(), -0.01)
        with pytest.raises(ValueError):
            ring_path(Vec3.zero(), 0.01, axis="w")
        with pytest.raises(ValueError, match="cross-section"):
            ring_path(Vec3.zero(), 0.01, wire_diameter=0.0)
        with pytest.raises(ValueError, match="cross-section"):
            ring_path(Vec3.zero(), 0.01, wire_diameter=-1e-3)
        with pytest.raises(ValueError, match="zero-length"):
            ring_path(Vec3.zero(), 1e-14, segments=8)


class TestRectanglePath:
    def test_four_filaments_closed(self):
        p = rectangle_path(Vec3(-0.005, 0, 0), Vec3(0.005, 0, 0.004))
        assert len(p) == 4
        assert is_closed_loop(p)

    def test_axis_is_normal(self):
        p = rectangle_path(Vec3(-0.005, 0, 0), Vec3(0.005, 0, 0.004), normal="y")
        axis = p.magnetic_axis()
        assert abs(axis.y) == pytest.approx(1.0)

    def test_moment_magnitude_is_area(self):
        p = rectangle_path(Vec3(-0.005, 0, 0), Vec3(0.005, 0, 0.004), normal="y")
        assert p.magnetic_moment().norm() == pytest.approx(0.01 * 0.004, rel=1e-9)

    def test_degenerate_rejected(self):
        with pytest.raises(ValueError):
            rectangle_path(Vec3(0, 0, 0), Vec3(0, 0, 0.004), normal="y")

    def test_bad_cross_section_rejected(self):
        a, b = Vec3(-0.005, 0, 0), Vec3(0.005, 0, 0.004)
        for width, thickness in ((0.0, 0.2e-3), (-1e-3, 0.2e-3), (1e-3, 0.0), (1e-3, -1e-6)):
            with pytest.raises(ValueError, match="cross-section"):
                rectangle_path(a, b, width=width, thickness=thickness)

    def test_bad_normal_rejected(self):
        with pytest.raises(ValueError):
            rectangle_path(Vec3(0, 0, 0), Vec3(1, 0, 1), normal="q")


class TestCurrentPath:
    def test_empty_rejected(self):
        empty = PackedFilaments.segments(np.empty((0, 3)), np.empty((0, 3)), 1e-3, 35e-6)
        with pytest.raises(ValueError, match="at least one filament"):
            CurrentPath(empty)

    def test_transform_moves_centroid(self):
        ring = ring_path(Vec3.zero(), 0.01)
        moved = ring.transformed(Transform3D(Vec3(0.02, 0.0, 0.001)))
        assert moved.centroid().is_close(Vec3(0.02, 0.0, 0.001), tol=1e-9)

    def test_transform_rotates_axis(self):
        path = ring_path(Vec3.zero(), 0.01, axis="x")
        rotated = path.transformed(Transform3D(Vec3.zero(), rotation_z_rad=math.pi / 2))
        assert rotated.magnetic_axis().is_close(Vec3(0, 1, 0), tol=1e-9)

    def test_merged(self):
        a = ring_path(Vec3.zero(), 0.01, segments=8)
        b = ring_path(Vec3(0.0, 0.0, 0.005), 0.01, segments=8)
        merged = CurrentPath(PackedFilaments.concatenated([a.packed, b.packed]))
        assert len(merged) == 16
        assert merged.packed.starts[8:].tolist() == b.packed.starts.tolist()

    def test_scaled_weights(self):
        ring = ring_path(Vec3.zero(), 0.01)
        scaled = scaled_weights(ring, 2.0)
        assert scaled.magnetic_moment().z == pytest.approx(
            2.0 * ring.magnetic_moment().z
        )

    def test_packed_route_rejects_an_empty_set(self):
        empty = PackedFilaments(*(np.empty((0, 3)),) * 2, *(np.empty(0),) * 3)
        with pytest.raises(ValueError):
            CurrentPath(empty)

    def test_packed_and_object_routes_agree(self):
        ring = ring_path(Vec3(0.01, 0.0, 0.002), 0.005, segments=8, weight=3.0)
        from_objects = CurrentPath(pack(unpack(ring.packed)), "L")
        from_arrays = CurrentPath(ring.packed, "L")
        for path in (from_objects, from_arrays):
            assert path.name == "L"
            assert path.magnetic_moment() == ring.magnetic_moment()
        assert from_arrays.packed is ring.packed

    def test_straight_trace_axis_falls_back_to_z(self):
        trace = path_of([Filament(Vec3(0, 0, 0), Vec3(0.02, 0, 0))])
        assert trace.magnetic_axis().is_close(Vec3(0, 0, 1))
