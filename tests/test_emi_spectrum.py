"""Unit tests for EMC spectra and dBµV conversions."""

import numpy as np
import pytest

from repro.circuit.mna import level_db
from repro.emi import Spectrum, dbuv_to_volts, volts_to_dbuv


class TestConversions:
    def test_one_microvolt_is_zero_db(self):
        assert volts_to_dbuv(1e-6) == pytest.approx(0.0)

    def test_one_millivolt_is_sixty_db(self):
        assert volts_to_dbuv(1e-3) == pytest.approx(60.0)

    def test_roundtrip(self):
        assert dbuv_to_volts(volts_to_dbuv(0.025)) == pytest.approx(0.025)

    def test_negative_voltage_uses_magnitude(self):
        assert volts_to_dbuv(-1e-3) == pytest.approx(60.0)

    def test_array_input(self):
        out = volts_to_dbuv(np.array([1e-6, 1e-5]))
        assert np.allclose(out, [0.0, 20.0])

    def test_zero_uses_the_circuit_level_floor(self):
        assert volts_to_dbuv(0.0) == level_db(np.array([0.0]), 1e-6)[0]


class TestSpectrum:
    def spectrum(self) -> Spectrum:
        return Spectrum(
            np.array([1e6, 2e6, 3e6]), np.array([1e-3, 1e-4, 1e-5], dtype=complex)
        )

    def test_level_statistics_skip_lines_below_the_floor(self):
        freqs = np.array([1e6, 2e6, 3e6])
        a = Spectrum(freqs, np.array([1e-3, 1e-17, 1e-5], dtype=complex))
        b = Spectrum(freqs, np.array([1e-4, 3e-19, 1e-6], dtype=complex))
        assert list(a.resolved_lines(b)) == [True, False, True]
        assert a.mean_abs_error_db(b) == pytest.approx(20.0)
        nulls = Spectrum(freqs, np.array([1e-17, 1e-18, 0.0], dtype=complex))
        assert not nulls.resolved_lines(a).any()
        assert nulls.mean_abs_error_db(a) == 0.0

    def test_validation_shapes(self):
        with pytest.raises(ValueError):
            Spectrum(np.array([1.0, 2.0]), np.array([1.0]))

    def test_validation_monotone(self):
        with pytest.raises(ValueError):
            Spectrum(np.array([2e6, 1e6]), np.array([1.0, 1.0]))

    def test_dbuv(self):
        assert np.allclose(self.spectrum().dbuv(), [60.0, 40.0, 20.0])

    def test_band_selection(self):
        sub = self.spectrum().band(1.5e6, 3.5e6)
        assert len(sub) == 2
        assert sub.freqs[0] == 2e6

    def test_max_in_band(self):
        assert self.spectrum().max_dbuv_in(0.0, 2.5e6) == pytest.approx(60.0)

    def test_max_in_empty_band(self):
        assert self.spectrum().max_dbuv_in(5e6, 6e6) == float("-inf")

    def test_scaled(self):
        doubled = self.spectrum().scaled(2.0)
        assert doubled.dbuv()[0] == pytest.approx(60.0 + 20 * np.log10(2))

    def test_delta_db(self):
        s = self.spectrum()
        assert np.allclose(s.delta_db(s), 0.0)
        assert np.allclose(s.scaled(10.0).delta_db(s), 20.0)

    def test_delta_requires_same_grid(self):
        s = self.spectrum()
        other = Spectrum(np.array([1e6, 2e6]), np.array([1.0, 1.0], dtype=complex))
        with pytest.raises(ValueError):
            s.delta_db(other)

    def test_correlation_of_scaled_copy_is_one(self):
        s = self.spectrum()
        assert s.correlation_db(s.scaled(3.0)) == pytest.approx(1.0)

    def test_mean_abs_error(self):
        s = self.spectrum()
        assert s.mean_abs_error_db(s.scaled(10.0)) == pytest.approx(20.0)

    def test_from_lines_sorts(self):
        s = Spectrum.from_lines([(2e6, 1.0), (1e6, 2.0)])
        assert s.freqs[0] == 1e6
        assert abs(s.values[0]) == 2.0

    def test_from_lines_empty_raises(self):
        with pytest.raises(ValueError):
            Spectrum.from_lines([])
