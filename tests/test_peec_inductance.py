"""Unit tests for loop/mutual inductance aggregation."""

import math

import numpy as np
import pytest
from filament_oracle import pack, unpack
from scipy.special import ellipe, ellipk

from repro.geometry import Transform3D, Vec3
from repro.peec import (
    MU0,
    PackedFilaments,
    loop_self_inductance,
    mutual_inductance_pairs,
    mutual_inductance_paths_fast,
    rectangle_path,
    ring_path,
)


def exact_path_mutual(a, b):
    """Weighted path mutual from the exact near-field pair kernel."""
    both = PackedFilaments.concatenated([a.packed, b.packed])
    i, j = np.meshgrid(np.arange(len(a)), np.arange(len(a), len(both)), indexing="ij")
    m = mutual_inductance_pairs(both, i.ravel(), j.ravel())
    w = both.weights
    return float(np.sum(w[i.ravel()] * w[j.ravel()] * m))


def partial_matrix(filaments):
    """Dense partial-inductance matrix: bar self-terms + exact pair mutuals."""
    n = len(filaments)
    i, j = np.meshgrid(np.arange(n), np.arange(n), indexing="ij")
    off = i != j
    m = np.diag([f.self_inductance() for f in filaments])
    m[off] = mutual_inductance_pairs(pack(filaments), i[off], j[off])
    return m


class TestLoopSelfInductance:
    def test_circular_loop_textbook(self):
        # L = mu0 R (ln(8R/a) - 2) for a thin circular loop of wire radius a.
        radius, wire_a = 0.01, 0.0004
        ring = ring_path(Vec3.zero(), radius, segments=24, wire_diameter=2 * wire_a)
        theory = MU0 * radius * (math.log(8 * radius / wire_a) - 2.0)
        assert loop_self_inductance(ring) == pytest.approx(theory, rel=0.15)

    def test_turns_scale_quadratically(self):
        one = loop_self_inductance(ring_path(Vec3.zero(), 0.01, weight=1.0))
        three = loop_self_inductance(ring_path(Vec3.zero(), 0.01, weight=3.0))
        assert three == pytest.approx(9.0 * one, rel=1e-6)

    def test_bigger_loop_bigger_l(self):
        small = loop_self_inductance(ring_path(Vec3.zero(), 0.005))
        big = loop_self_inductance(ring_path(Vec3.zero(), 0.02))
        assert big > small

    def test_rectangle_loop_positive(self):
        p = rectangle_path(Vec3(-0.0075, 0, 0), Vec3(0.0075, 0, 0.01), normal="y")
        assert loop_self_inductance(p) > 0.0


class TestMutualInductance:
    def test_coaxial_rings_against_dipole_limit(self):
        # Far coaxial loops: M -> mu0 pi a^2 b^2 / (2 d^3).
        a = b = 0.005
        d = 0.05
        r1 = ring_path(Vec3.zero(), a, segments=24)
        r2 = ring_path(Vec3(0, 0, d), b, segments=24)
        theory = MU0 * math.pi * a**2 * b**2 / (2 * d**3)
        assert mutual_inductance_paths_fast(r1, r2) == pytest.approx(theory, rel=0.05)

    def test_reciprocity(self):
        r1 = ring_path(Vec3.zero(), 0.006, segments=12, axis="x")
        r2 = ring_path(Vec3(0.02, 0.01, 0.002), 0.004, segments=12, axis="y")
        assert mutual_inductance_paths_fast(r1, r2) == pytest.approx(
            mutual_inductance_paths_fast(r2, r1), rel=1e-9
        )

    def test_fast_matches_slow(self):
        # "slow" is the exact near-field pair kernel at order 12.
        r1 = ring_path(Vec3.zero(), 0.006, segments=12, axis="x")
        r2 = ring_path(Vec3(0.025, 0.005, 0.003), 0.005, segments=12, axis="x")
        slow = exact_path_mutual(r1, r2)
        fast = mutual_inductance_paths_fast(r1, r2)
        assert fast == pytest.approx(slow, rel=1e-6)

    def test_fast_respects_weights(self):
        r1 = ring_path(Vec3.zero(), 0.006, weight=2.0)
        r2 = ring_path(Vec3(0, 0, 0.02), 0.006, weight=3.0)
        r1u = ring_path(Vec3.zero(), 0.006)
        r2u = ring_path(Vec3(0, 0, 0.02), 0.006)
        assert mutual_inductance_paths_fast(r1, r2) == pytest.approx(
            6.0 * mutual_inductance_paths_fast(r1u, r2u), rel=1e-9
        )

    def test_rigid_motion_invariance(self):
        r1 = ring_path(Vec3.zero(), 0.006, axis="x")
        r2 = ring_path(Vec3(0.03, 0.0, 0.0), 0.006, axis="x")
        m0 = mutual_inductance_paths_fast(r1, r2)
        t = Transform3D(Vec3(0.01, -0.02, 0.004), rotation_z_rad=0.9)
        m1 = mutual_inductance_paths_fast(r1.transformed(t), r2.transformed(t))
        assert m1 == pytest.approx(m0, rel=1e-9)


def maxwell_coaxial_mutual(a, b, d):
    """Maxwell's exact mutual inductance of two thin coaxial circular loops [H].

    ``M = mu0 sqrt(ab) [(2/k - k) K(k) - (2/k) E(k)]`` with
    ``k^2 = 4ab / ((a + b)^2 + d^2)``; scipy's ``ellipk``/``ellipe`` take
    the parameter ``m = k^2``.
    """
    m = 4.0 * a * b / ((a + b) ** 2 + d**2)
    k = math.sqrt(m)
    return MU0 * math.sqrt(a * b) * ((2.0 / k - k) * ellipk(m) - 2.0 / k * ellipe(m))


class TestMaxwellCoaxialLoops:
    """The ring mesh error against the exact formula, as a checked number.

    Two 5 mm rings at d/a = 0.4 ... 8.  The inscribed polygon has less
    area than the circle, so the mesh under-estimates M, the more so the
    farther apart the rings are (the far field sees only the area).  The
    bands are the errors measured with the order-8 kernel, rounded
    outwards: 12 segments -4.16 % ... -8.63 %, 24 segments -1.04 % ...
    -2.21 %, 96 segments at most 0.14 %.
    """

    RADIUS = 5e-3
    RATIOS = (0.4, 1.0, 2.0, 4.0, 8.0)

    def errors(self, segments):
        a = self.RADIUS
        out = []
        for ratio in self.RATIOS:
            d = ratio * a
            mesh = mutual_inductance_paths_fast(
                ring_path(Vec3.zero(), a, segments=segments),
                ring_path(Vec3(0.0, 0.0, d), a, segments=segments),
            )
            out.append(mesh / maxwell_coaxial_mutual(a, a, d) - 1.0)
        return np.array(out)

    def test_formula_far_field_is_the_dipole_limit(self):
        a, d = self.RADIUS, 200 * self.RADIUS
        dipole = MU0 * math.pi * a**4 / (2 * d**3)
        assert maxwell_coaxial_mutual(a, a, d) == pytest.approx(dipole, rel=1e-4)

    @pytest.mark.parametrize(
        ("segments", "lowest", "highest"),
        [(12, -0.087, -0.041), (24, -0.023, -0.010), (96, -0.0014, 0.0)],
    )
    def test_mesh_error_band(self, segments, lowest, highest):
        errors = self.errors(segments)
        assert np.all(errors >= lowest), errors
        assert np.all(errors <= highest), errors
        # The error grows with distance (d/a ascending).
        assert np.all(np.diff(errors) < 0.0), errors


class TestCouplingFactor:
    """k = M / sqrt(La * Lb) of two coaxial rings (self-L is pose invariant)."""

    def test_bounds(self):
        r1 = ring_path(Vec3.zero(), 0.006)
        r2 = ring_path(Vec3(0, 0, 0.008), 0.006)
        m = mutual_inductance_paths_fast(r1, r2)
        k = m / math.sqrt(loop_self_inductance(r1) * loop_self_inductance(r2))
        assert -1.0 <= k <= 1.0

    def test_decreases_with_distance(self):
        r1 = ring_path(Vec3.zero(), 0.006)
        ms = []
        for d in (0.01, 0.02, 0.04):
            r2 = ring_path(Vec3(0, 0, d), 0.006)
            ms.append(abs(mutual_inductance_paths_fast(r1, r2)))
        assert ms[0] > ms[1] > ms[2]

    def test_flip_one_ring_flips_sign(self):
        r1 = ring_path(Vec3.zero(), 0.006)
        r2 = ring_path(Vec3(0, 0, 0.02), 0.006)
        r2_flipped = ring_path(Vec3(0, 0, 0.02), 0.006, weight=-1.0)
        assert mutual_inductance_paths_fast(r1, r2_flipped) == pytest.approx(
            -mutual_inductance_paths_fast(r1, r2), rel=1e-9
        )


class TestPartialMatrix:
    def test_symmetric_positive_diagonal(self):
        ring = ring_path(Vec3.zero(), 0.008, segments=8)
        m = partial_matrix(unpack(ring.packed))
        assert np.allclose(m, m.T)
        assert np.all(np.diag(m) > 0.0)

    def test_consistent_with_loop_inductance(self):
        ring = ring_path(Vec3.zero(), 0.008, segments=8)
        m = partial_matrix(unpack(ring.packed))
        w = ring.packed.weights
        assert float(w @ m @ w) == pytest.approx(loop_self_inductance(ring), rel=1e-9)
