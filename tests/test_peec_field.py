"""Unit tests for Biot-Savart field evaluation."""

import math

import numpy as np
import pytest
from filament_oracle import Filament, path_of

from repro.geometry import Vec3
from repro.peec import (
    MU0,
    b_field,
    b_field_grid,
    field_magnitude_map,
    ring_path,
)


class TestSingleFilament:
    def test_infinite_wire_limit(self):
        # Long wire: B = mu0 I / (2 pi rho) at its middle.
        f = Filament(Vec3(-1.0, 0, 0), Vec3(1.0, 0, 0))
        rho = 0.01
        b = b_field(path_of([f]), Vec3(0.0, rho, 0.0), current=2.0)
        expected = MU0 * 2.0 / (2 * math.pi * rho)
        assert b.norm() == pytest.approx(expected, rel=1e-3)

    def test_right_hand_rule_direction(self):
        f = Filament(Vec3(-1.0, 0, 0), Vec3(1.0, 0, 0))
        b = b_field(path_of([f]), Vec3(0.0, 0.01, 0.0))
        # Current +x, point at +y: B along +z? e_phi = t x e_rho = x x y = z.
        assert b.z > 0.0
        assert abs(b.x) < 1e-15

    def test_weight_scales_field(self):
        f1 = Filament(Vec3(0, 0, 0), Vec3(0.02, 0, 0), weight=1.0)
        f2 = Filament(Vec3(0, 0, 0), Vec3(0.02, 0, 0), weight=3.0)
        p = Vec3(0.01, 0.005, 0.0)
        assert b_field(path_of([f2]), p).norm() == pytest.approx(
            3.0 * b_field(path_of([f1]), p).norm()
        )

    def test_on_axis_returns_zero(self):
        f = Filament(Vec3(0, 0, 0), Vec3(0.02, 0, 0))
        b = b_field(path_of([f]), Vec3(0.03, 0.0, 0.0))
        assert b.norm() == 0.0

    def test_inside_conductor_clamped(self):
        f = Filament(Vec3(0, 0, 0), Vec3(0.02, 0, 0), width=1e-3, thickness=1e-3)
        b_close = b_field(path_of([f]), Vec3(0.01, 1e-7, 0.0))
        b_surface = b_field(path_of([f]), Vec3(0.01, 0.5e-3, 0.0))
        assert b_close.norm() <= b_surface.norm() * 1.001


class TestRingField:
    def test_center_of_ring(self):
        radius = 0.01
        ring = ring_path(Vec3.zero(), radius, segments=64)
        b = b_field(ring, Vec3.zero())
        assert b.z == pytest.approx(MU0 / (2 * radius), rel=0.01)

    def test_on_axis_formula(self):
        radius, z = 0.01, 0.02
        ring = ring_path(Vec3.zero(), radius, segments=64)
        b = b_field(ring, Vec3(0, 0, z))
        expected = MU0 * radius**2 / (2 * (radius**2 + z**2) ** 1.5)
        assert b.z == pytest.approx(expected, rel=0.01)

    def test_field_decays_off_axis(self):
        ring = ring_path(Vec3.zero(), 0.01, segments=32)
        near = b_field(ring, Vec3(0.02, 0, 0)).norm()
        far = b_field(ring, Vec3(0.06, 0, 0)).norm()
        assert near > far


class TestGrids:
    def test_grid_shape(self):
        ring = ring_path(Vec3.zero(), 0.01, segments=8)
        xs = np.linspace(-0.02, 0.02, 5)
        ys = np.linspace(-0.01, 0.01, 3)
        grid = b_field_grid([ring], xs, ys, z=0.001)
        assert grid.shape == (3, 5, 3)

    def test_magnitude_map_matches_vectors(self):
        ring = ring_path(Vec3.zero(), 0.01, segments=8)
        xs = np.linspace(-0.02, 0.02, 4)
        ys = np.linspace(-0.01, 0.01, 4)
        vectors = b_field_grid([ring], xs, ys)
        mags = field_magnitude_map([ring], xs, ys)
        assert mags.shape == (4, 4)
        assert np.allclose(mags, np.linalg.norm(vectors, axis=2))

    def test_currents_mismatch_rejected(self):
        ring = ring_path(Vec3.zero(), 0.01, segments=8)
        with pytest.raises(ValueError):
            b_field_grid([ring], np.array([0.0]), np.array([0.0]), currents=[1.0, 2.0])

    def test_superposition(self):
        r1 = ring_path(Vec3.zero(), 0.01, segments=8)
        r2 = ring_path(Vec3(0.03, 0, 0), 0.01, segments=8)
        xs = np.array([0.015])
        ys = np.array([0.0])
        both = b_field_grid([r1, r2], xs, ys)[0, 0]
        one = b_field_grid([r1], xs, ys)[0, 0]
        two = b_field_grid([r2], xs, ys)[0, 0]
        assert np.allclose(both, one + two)
