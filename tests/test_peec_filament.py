"""Unit tests for partial inductances of filaments.

The closed forms are cross-validated against quadrature and against
textbook reference values, which is the foundation the whole coupling
prediction rests on.  Single-pair values come from the batched kernels on
two-row sets (``filament_oracle``).
"""

import math

import numpy as np
import pytest
from filament_oracle import Filament, neumann_mutual, pack, pair_mutual, parallel_mutual

from repro.geometry import Transform3D, Vec3
from repro.peec import MU0, PackedFilaments, self_inductance_bar


def fil(x1, y1, z1, x2, y2, z2, **kw) -> Filament:
    return Filament(Vec3(x1, y1, z1), Vec3(x2, y2, z2), **kw)


def segments(points, width=1e-3, thickness=35e-6, weight=1.0):
    """A checked set from rows of ``(x0, y0, z0, x1, y1, z1)``."""
    rows = np.array(points, dtype=float)
    return PackedFilaments.segments(rows[:, :3], rows[:, 3:], width, thickness, weight)


class TestFilamentBasics:
    def test_length_direction_midpoint(self):
        packed = segments([(0, 0, 0, 0.03, 0.04, 0)])
        assert packed.lengths()[0] == pytest.approx(0.05)
        f = fil(0, 0, 0, 0.03, 0.04, 0)
        assert f.direction.is_close(Vec3(0.6, 0.8, 0.0))
        assert f.midpoint.is_close(Vec3(0.015, 0.02, 0.0))

    def test_zero_length_rejected(self):
        with pytest.raises(ValueError, match="zero-length"):
            segments([(0, 0, 0, 0, 0, 0)])
        # One repeated point among good rows is enough.
        with pytest.raises(ValueError, match="zero-length"):
            segments([(0, 0, 0, 1, 0, 0), (1, 0, 0, 1, 0, 0), (1, 0, 0, 0, 0, 0)])

    def test_bad_cross_section_rejected(self):
        for width, thickness in ((0.0, 35e-6), (1e-3, 0.0), (-1e-3, 35e-6), (1e-3, -1.0)):
            with pytest.raises(ValueError, match="cross-section"):
                segments([(0, 0, 0, 1, 0, 0)], width=width, thickness=thickness)
        # Per-segment widths: one bad row is enough.
        with pytest.raises(ValueError, match="cross-section"):
            segments([(0, 0, 0, 1, 0, 0), (1, 0, 0, 2, 0, 0)], width=np.array([1e-3, 0.0]))

    def test_reversed(self):
        f = fil(0, 0, 0, 1, 0, 0)
        assert f.reversed().direction.is_close(Vec3(-1.0, 0.0, 0.0))
        other = fil(0, 1, 0, 1, 1, 0)
        assert pair_mutual(other, f.reversed()) == pytest.approx(
            -pair_mutual(other, f), rel=1e-12
        )

    def test_transformed(self):
        packed = segments([(0.01, 0, 0, 0.02, 0, 0)])
        t = Transform3D(Vec3(0, 0, 0.005), rotation_z_rad=math.pi / 2.0)
        np.testing.assert_allclose(
            packed.transformed(t).starts[0], [0.0, 0.01, 0.005], rtol=0, atol=1e-12
        )

    def test_mirrored_z(self):
        image = segments([(0, 0, 0.001, 0.01, 0, 0.002)], weight=2.0).image(0.0)
        assert image.starts[0, 2] == pytest.approx(-0.001)
        assert image.ends[0, 2] == pytest.approx(-0.002)
        assert image.weights[0] == -2.0
        mirrored = fil(0, 0, 0.001, 0.01, 0, 0.002).mirrored_z(0.0)
        assert image.starts[0].tolist() == mirrored.start.as_array().tolist()

    def test_checked_set_is_read_only_and_shaped(self):
        packed = segments([(0, 0, 0, 1, 0, 0), (1, 0, 0, 1, 1, 0)], width=2e-3, weight=-3.0)
        assert packed.widths.tolist() == [2e-3, 2e-3]
        assert packed.weights.tolist() == [-3.0, -3.0]
        assert not packed.starts.flags.writeable
        with pytest.raises(ValueError, match="end points"):
            PackedFilaments.segments(np.zeros((2, 3)), np.ones((3, 3)), 1e-3, 35e-6)
        with pytest.raises(ValueError, match="end points"):
            PackedFilaments.segments(np.zeros((2, 2)), np.ones((2, 2)), 1e-3, 35e-6)

    def test_checked_set_packs_like_the_objects(self):
        fils = [fil(0, 0, 0, 0.01, 0, 0, width=2e-3, weight=2.0), fil(0.01, 0, 0, 0.01, 0.02, 0)]
        packed = PackedFilaments.segments(
            [f.start.as_array() for f in fils],
            [f.end.as_array() for f in fils],
            [f.width for f in fils],
            [f.thickness for f in fils],
            [f.weight for f in fils],
        )
        expected = pack(fils)
        for name in ("starts", "ends", "widths", "thicknesses", "weights"):
            assert getattr(packed, name).tobytes() == getattr(expected, name).tobytes()


class TestSelfInductance:
    def test_ruehli_formula_value(self):
        # 10 mm x 1 mm x 35 um trace: compare with the formula directly.
        length, w, t = 0.01, 1e-3, 35e-6
        expected = (MU0 * length / (2 * math.pi)) * (
            math.log(2 * length / (w + t)) + 0.5 + 0.2235 * (w + t) / length
        )
        assert self_inductance_bar(length, w, t) == pytest.approx(expected)

    def test_magnitude_is_nanohenry_scale(self):
        # Classic rule of thumb: ~6-10 nH/cm for thin traces.
        value = self_inductance_bar(0.01, 1e-3, 35e-6)
        assert 4e-9 < value < 12e-9

    def test_grows_superlinearly_with_length(self):
        l1 = self_inductance_bar(0.01, 1e-3, 35e-6)
        l2 = self_inductance_bar(0.02, 1e-3, 35e-6)
        assert l2 > 2.0 * l1

    def test_stubby_bar_clamped_positive(self):
        assert self_inductance_bar(1e-4, 5e-3, 5e-3) > 0.0

    def test_invalid_inputs(self):
        with pytest.raises(ValueError):
            self_inductance_bar(0.0, 1e-3, 1e-3)
        with pytest.raises(ValueError):
            self_inductance_bar(1e-2, -1e-3, 1e-3)


class TestParallelClosedForm:
    def test_matches_quadrature_offset_pair(self):
        f1 = fil(0, 0, 0, 0.02, 0, 0)
        f2 = fil(0.005, 0.004, 0, 0.018, 0.004, 0)
        closed = parallel_mutual(f1, f2)
        quad = neumann_mutual(f1, f2, order=24)
        assert closed == pytest.approx(quad, rel=1e-9)

    def test_antiparallel_is_negative(self):
        f1 = fil(0, 0, 0, 0.02, 0, 0)
        f2 = fil(0.018, 0.004, 0, 0.005, 0.004, 0)
        assert parallel_mutual(f1, f2) < 0.0

    def test_sign_antisymmetry(self):
        f1 = fil(0, 0, 0, 0.02, 0, 0)
        f2 = fil(0.0, 0.003, 0, 0.02, 0.003, 0)
        m_par = parallel_mutual(f1, f2)
        m_anti = parallel_mutual(f1, f2.reversed())
        assert m_par == pytest.approx(-m_anti)

    def test_axially_displaced_pair(self):
        f1 = fil(0, 0, 0, 0.02, 0, 0)
        f2 = fil(0.05, 0.004, 0, 0.08, 0.004, 0)
        closed = parallel_mutual(f1, f2)
        quad = neumann_mutual(f1, f2, order=24)
        assert closed == pytest.approx(quad, rel=1e-8)

    def test_reciprocity(self):
        f1 = fil(0, 0, 0, 0.02, 0, 0)
        f2 = fil(0.004, 0.006, 0.001, 0.016, 0.006, 0.001)
        assert parallel_mutual(f1, f2) == pytest.approx(
            parallel_mutual(f2, f1)
        )


class TestGeneralMutual:
    def test_perpendicular_is_zero(self):
        f1 = fil(0, 0, 0, 0.02, 0, 0)
        f2 = fil(0.01, 0.005, 0, 0.01, 0.025, 0)
        assert neumann_mutual(f1, f2) == 0.0
        assert pair_mutual(f1, f2) == 0.0

    def test_skew_pair_angle_scaling(self):
        # M scales with cos(angle) between directions at fixed geometry scale.
        f1 = fil(0, 0, 0, 0.02, 0, 0)
        base = fil(0.0, 0.01, 0, 0.02, 0.01, 0)
        m0 = pair_mutual(f1, base)
        rot = fil(0.0, 0.01, 0, 0.02 * math.cos(0.5), 0.01 + 0.02 * math.sin(0.5), 0)
        m1 = pair_mutual(f1, rot)
        assert abs(m1) < abs(m0)

    def test_close_pair_subdivision_converges(self):
        f1 = fil(0, 0, 0, 0.05, 0, 0)
        f2 = fil(0.001, 0.002, 0.0005, 0.049, 0.0025, 0.0005)
        coarse = neumann_mutual(f1, f2, order=32)
        auto = pair_mutual(f1, f2)
        assert auto == pytest.approx(coarse, rel=0.02)

    def test_decays_with_distance(self):
        f1 = fil(0, 0, 0, 0.02, 0, 0)
        prev = None
        for d in (0.005, 0.01, 0.02, 0.04):
            f2 = fil(0, d, 0, 0.02, d, 0)
            m = pair_mutual(f1, f2)
            assert m > 0.0
            if prev is not None:
                assert m < prev
            prev = m

    def test_two_parallel_wires_textbook(self):
        # Two parallel 100 mm wires, 10 mm apart:
        # M = (mu0 l / 2 pi)(ln(l/d + sqrt(1+(l/d)^2)) - sqrt(1+(d/l)^2) + d/l)
        length, d = 0.1, 0.01
        f1 = fil(0, 0, 0, length, 0, 0)
        f2 = fil(0, d, 0, length, d, 0)
        ratio = length / d
        expected = (MU0 * length / (2 * math.pi)) * (
            math.log(ratio + math.sqrt(1 + ratio**2))
            - math.sqrt(1 + (d / length) ** 2)
            + d / length
        )
        assert parallel_mutual(f1, f2) == pytest.approx(expected, rel=1e-6)
