"""Unit tests for the ground-plane image method (``PackedFilaments.image``)."""

import pytest

from repro.geometry import Vec3
from repro.peec import (
    CurrentPath,
    PackedFilaments,
    loop_self_inductance,
    mutual_inductance_paths_fast,
    ring_path,
)


def image_of(path: CurrentPath, plane_z: float = 0.0) -> CurrentPath:
    return CurrentPath(path.packed.image(plane_z))


def with_plane(path: CurrentPath, plane_z: float = 0.0) -> CurrentPath:
    """The path plus its images: the source operand of a shielded mutual."""
    return CurrentPath(PackedFilaments.concatenated([path.packed, path.packed.image(plane_z)]))


class TestImageConstruction:
    def test_weights_negated(self):
        ring = ring_path(Vec3(0, 0, 0.003), 0.005, weight=2.0)
        img = ring.packed.image(0.0)
        assert (img.weights == -2.0).all()

    def test_geometry_mirrored(self):
        ring = ring_path(Vec3(0, 0, 0.003), 0.005)
        img = image_of(ring, plane_z=0.0)
        assert img.centroid().z == pytest.approx(-0.003)

    def test_horizontal_loop_image_moment_antiparallel(self):
        # Vertical-axis loop (horizontal plane): image moment must flip.
        ring = ring_path(Vec3(0, 0, 0.003), 0.005, axis="z")
        img = image_of(ring)
        assert img.magnetic_moment().z == pytest.approx(
            -ring.magnetic_moment().z, rel=1e-9
        )

    def test_standing_loop_image_moment_mirrored(self):
        # Horizontal-axis loop: image moment keeps the in-plane component
        # sign (geometry mirror reverses traversal AND weight flips => net
        # parallel for the in-plane moment).
        ring = ring_path(Vec3(0, 0, 0.005), 0.004, axis="x")
        img = image_of(ring)
        assert img.magnetic_moment().x == pytest.approx(
            ring.magnetic_moment().x, rel=1e-9
        )

    def test_with_ground_plane_doubles_filaments(self):
        ring = ring_path(Vec3(0, 0, 0.003), 0.005, segments=8)
        assert len(with_plane(ring)) == 16


class TestShieldingPhysics:
    def test_plane_reduces_flat_loop_coupling(self):
        # Two flat (vertical-axis) loops close above a plane: the image
        # currents largely cancel the mutual coupling.
        a = ring_path(Vec3(0, 0, 0.002), 0.008, segments=12)
        b = ring_path(Vec3(0.03, 0, 0.002), 0.008, segments=12)
        m_free = mutual_inductance_paths_fast(a, b)
        m_shielded = mutual_inductance_paths_fast(with_plane(a), b)
        assert abs(m_shielded) < abs(m_free)

    def test_far_plane_negligible(self):
        a = ring_path(Vec3(0, 0, 0.002), 0.005, segments=8)
        b = ring_path(Vec3(0.02, 0, 0.002), 0.005, segments=8)
        m_free = mutual_inductance_paths_fast(a, b)
        m_far = mutual_inductance_paths_fast(with_plane(a, plane_z=-1.0), b)
        assert m_far == pytest.approx(m_free, rel=0.01)

    def test_plane_reduces_self_inductance(self):
        loop = ring_path(Vec3(0, 0, 0.001), 0.01, segments=12)
        l_free = loop_self_inductance(loop)
        # Self inductance with plane: L + M(loop, image), image carries the
        # same terminal current.
        l_eff = l_free + mutual_inductance_paths_fast(loop, image_of(loop))
        assert 0.0 < l_eff < l_free
