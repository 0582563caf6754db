"""Unit tests for the effective-permeability correction."""

import pytest

from repro.peec import (
    AIR_CORE,
    FERRITE_N87,
    IRON_POWDER_26,
    CoreMaterial,
    demagnetizing_factor_rod,
    effective_permeability,
    stray_coupling_scale,
)


class TestDemagnetizingFactor:
    def test_sphere_limit_for_stubby(self):
        assert demagnetizing_factor_rod(0.01, 0.01) == pytest.approx(1.0 / 3.0)

    def test_decreases_with_aspect_ratio(self):
        n2 = demagnetizing_factor_rod(0.02, 0.01)
        n5 = demagnetizing_factor_rod(0.05, 0.01)
        n10 = demagnetizing_factor_rod(0.10, 0.01)
        assert n2 > n5 > n10 > 0.0

    def test_long_rod_small_n(self):
        assert demagnetizing_factor_rod(0.5, 0.01) < 0.002

    def test_invalid(self):
        with pytest.raises(ValueError):
            demagnetizing_factor_rod(0.0, 0.01)


class TestEffectivePermeability:
    def test_closed_core_keeps_mu(self):
        assert effective_permeability(2000.0, 0.0) == pytest.approx(2000.0)

    def test_open_core_saturates_by_shape(self):
        # With N = 0.1, mu_eff -> ~1/N regardless of material mu.
        assert effective_permeability(2000.0, 0.1) == pytest.approx(10.0, rel=0.01)
        assert effective_permeability(10000.0, 0.1) == pytest.approx(10.0, rel=0.01)

    def test_air_unchanged(self):
        assert effective_permeability(1.0, 0.3) == pytest.approx(1.0)

    def test_bounds_checked(self):
        with pytest.raises(ValueError):
            effective_permeability(0.5, 0.1)
        with pytest.raises(ValueError):
            effective_permeability(100.0, 1.5)

    def test_monotone_in_mu(self):
        lo = effective_permeability(10.0, 0.05)
        hi = effective_permeability(100.0, 0.05)
        assert hi > lo


class TestMaterials:
    def test_catalogue_sanity(self):
        assert AIR_CORE.mu_r == 1.0
        assert FERRITE_N87.mu_r > 1000.0
        assert IRON_POWDER_26.mu_r < FERRITE_N87.mu_r

    def test_material_mu_eff(self):
        assert FERRITE_N87.mu_eff(1.0 / 3.0) < 4.0

    def test_custom_material(self):
        m = CoreMaterial("test", mu_r=50.0, stray_fraction=0.5)
        assert m.mu_eff(0.02) == pytest.approx(50.0 / (1.0 + 0.02 * 49.0))


class TestStrayScale:
    def test_air_identity(self):
        assert stray_coupling_scale(1.0, 1.0, 1.0, 1.0) == pytest.approx(1.0)

    def test_geometric_mean(self):
        assert stray_coupling_scale(4.0, 1.0, 9.0, 1.0) == pytest.approx(6.0)

    def test_invalid(self):
        with pytest.raises(ValueError):
            stray_coupling_scale(0.5, 1.0, 1.0, 1.0)
