"""Grid-wide source spectra equal the per-harmonic evaluation they replaced.

``scalar_coefficient`` below is the former per-harmonic
``pwl_fourier_coefficient`` (one Python call per harmonic), kept here as the
oracle.  The grid evaluation must reproduce it exactly, and every source
spectrum must be evaluated once per sweep.
"""

import cmath
import math

import numpy as np
import pytest

from repro.circuit import (
    Circuit,
    MnaSystem,
    TrapezoidSource,
    pwl_fourier_coefficient,
    trapezoid_breakpoints,
)
from repro.circuit.elements import CurrentSource, VoltageSource


def scalar_coefficient(times, values, period: float, harmonic: int) -> complex:
    """Oracle: the scalar per-harmonic Fourier coefficient of a PWL wave."""
    t = np.asarray(times, dtype=float)
    v = np.asarray(values, dtype=float)
    if harmonic == 0:
        total = 0.0
        for i in range(len(t) - 1):
            dt = t[i + 1] - t[i]
            total += 0.5 * (v[i] + v[i + 1]) * dt
        return complex(total / period)
    w = 2.0 * math.pi * harmonic / period
    total_c = 0.0 + 0.0j
    for i in range(len(t) - 1):
        t1, t2 = t[i], t[i + 1]
        dt = t2 - t1
        if dt <= 0.0:
            continue
        v1, v2 = v[i], v[i + 1]
        slope = (v2 - v1) / dt
        e1 = cmath.exp(-1j * w * t1)
        e2 = cmath.exp(-1j * w * t2)
        total_c += (v1 * e1 - v2 * e2) / (1j * w) + slope * (e2 - e1) / (w * w)
    return total_c / period


def random_trapezoid(seed: int) -> TrapezoidSource:
    """Asymmetric edges, a non-zero low rail, duty 0.2-0.8, fsw 100-500 kHz."""
    rng = np.random.default_rng(seed)
    return TrapezoidSource(
        v_low=float(rng.uniform(-3.0, 2.0)),
        v_high=float(rng.uniform(5.0, 40.0)),
        switching_frequency=float(rng.uniform(100e3, 500e3)),
        duty=float(rng.uniform(0.2, 0.8)),
        t_rise=float(rng.uniform(5e-9, 80e-9)),
        t_fall=float(rng.uniform(5e-9, 80e-9)),
    )


def random_pwl(seed: int) -> tuple[np.ndarray, np.ndarray, float]:
    """A random periodic PWL wave whose breakpoints include jumps."""
    rng = np.random.default_rng(seed)
    period = float(rng.uniform(1e-6, 1e-5))
    inner = np.sort(rng.uniform(0.0, period, int(rng.integers(3, 8))))
    jumps = rng.choice(inner, size=2, replace=False)  # repeated times = jumps
    times = np.concatenate([[0.0], np.sort(np.concatenate([inner, jumps])), [period]])
    values = rng.uniform(-5.0, 5.0, len(times))
    values[-1] = values[0]
    return times, values, period


def exactly_equal(got: np.ndarray, expected: np.ndarray) -> bool:
    return bool(np.array_equal(got, expected)) and got.dtype == complex


class TestGridEqualsScalarOracle:
    @pytest.mark.parametrize("seed", range(8))
    def test_trapezoid_harmonics(self, seed):
        source = random_trapezoid(seed)
        times, values = source.breakpoints()
        n = np.arange(0, 400)
        c = np.array([scalar_coefficient(times, values, source.period, int(k)) for k in n])
        expected = np.where(n == 0, c, 2.0 * c)
        assert exactly_equal(pwl_fourier_coefficient(times, values, source.period, n), c)
        assert exactly_equal(source.harmonic(n), expected)

    @pytest.mark.parametrize("seed", range(8))
    def test_trapezoid_spectrum_on_its_grid(self, seed):
        source = random_trapezoid(seed)
        freqs = source.harmonic_frequencies(60e6)
        times, values = source.breakpoints()
        expected = np.array(
            [2.0 * scalar_coefficient(times, values, source.period, n)
             for n in range(1, len(freqs) + 1)]
        )
        assert exactly_equal(source.spectrum_callable()(freqs), expected)

    @pytest.mark.parametrize("seed", range(8))
    def test_pwl_with_jumps_and_dc(self, seed):
        times, values, period = random_pwl(seed)
        assert np.any(np.diff(times) == 0.0)
        n = np.array([0, 1, 2, 3, 0, 7, 64, 255, 1])
        expected = np.array([scalar_coefficient(times, values, period, int(k)) for k in n])
        assert exactly_equal(pwl_fourier_coefficient(times, values, period, n), expected)

    def test_scalar_harmonic_gives_python_complex(self):
        source = random_trapezoid(0)
        times, values = source.breakpoints()
        for n in (0, 1, 5):
            c = pwl_fourier_coefficient(times, values, source.period, n)
            assert type(c) is complex
            assert c == scalar_coefficient(times, values, source.period, n)
            assert type(source.harmonic(n)) is complex

    def test_integer_array_keeps_its_shape(self):
        times, values = trapezoid_breakpoints(1e-6, 0.4, 1e-8, 2e-8)
        grid = np.arange(12).reshape(3, 4)
        assert pwl_fourier_coefficient(times, values, 1e-6, grid).shape == (3, 4)


class TestOffHarmonic:
    def test_off_harmonic_and_outside_tolerance_are_zero(self):
        source = random_trapezoid(3)
        f0 = source.switching_frequency
        freqs = np.array(
            [0.0, 0.4 * f0, 0.5 * f0, 2.5 * f0, 3.0 * f0 + 2e-6 * f0, 5.0 * f0 - 2e-6 * f0]
        )
        assert np.array_equal(source.spectrum_callable()(freqs), np.zeros(len(freqs)))

    def test_inside_tolerance_is_the_harmonic(self):
        source = random_trapezoid(3)
        f0 = source.switching_frequency
        freqs = np.array([3.0 * f0 + 0.5e-6 * f0, 5.0 * f0 - 0.5e-6 * f0])
        assert np.array_equal(source.spectrum_callable()(freqs), source.harmonic(np.array([3, 5])))


class TestOncePerSweep:
    @pytest.mark.parametrize("kind", ["vsource", "isource"])
    def test_spectrum_called_once_per_sweep(self, kind):
        calls = []

        def spectrum(freqs):
            calls.append(np.shape(freqs))
            return 1.0 / (1.0 + 1j * freqs / 1e6)

        c = Circuit()
        if kind == "vsource":
            c.add_vsource("V1", "in", "0", spectrum=spectrum)
        else:
            c.add_isource("I1", "in", "0", spectrum=spectrum)
        c.add_resistor("R1", "in", "0", 50.0)
        freqs = np.logspace(4, 7, 25)
        MnaSystem(c).ac_sweep(freqs)
        assert calls == [(25,)]

    def test_unbroadcastable_spectrum_names_the_element(self):
        c = Circuit()
        c.add_vsource("VNOISE", "in", "0", spectrum=lambda f: np.ones(3))
        c.add_resistor("R1", "in", "0", 50.0)
        with pytest.raises(ValueError, match="VNOISE"):
            MnaSystem(c).ac_sweep(np.logspace(4, 7, 5))

    def test_constant_spectrum_broadcasts(self):
        for cls in (VoltageSource, CurrentSource):
            source = cls("S1", "a", "0", ac=1.0, spectrum=lambda f: 0.5j)
            assert np.array_equal(source.phasors(np.arange(4.0)), np.full(4, 0.5j))


class TestInputChecks:
    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_sweep_rejects_non_finite_frequency(self, bad):
        c = Circuit()
        c.add_vsource("V1", "in", "0", ac=1.0)
        c.add_resistor("R1", "in", "0", 50.0)
        with pytest.raises(ValueError, match=f"frequency {bad!r} is not finite"):
            MnaSystem(c).ac_sweep(np.array([1e3, bad]))

    def test_non_integer_harmonic_rejected(self):
        times, values = trapezoid_breakpoints(1.0, 0.5, 0.1, 0.1)
        with pytest.raises(ValueError, match="integer"):
            pwl_fourier_coefficient(times, values, 1.0, 1.5)
        with pytest.raises(ValueError, match="integer"):
            pwl_fourier_coefficient(times, values, 1.0, np.array([1.0, 2.0]))

    def test_negative_harmonic_in_array_rejected(self):
        times, values = trapezoid_breakpoints(1.0, 0.5, 0.1, 0.1)
        with pytest.raises(ValueError, match=">= 0"):
            pwl_fourier_coefficient(times, values, 1.0, np.array([1, -2]))

    def test_branch_response_unknown_inductor_is_key_error(self):
        c = Circuit()
        c.add_vsource("V1", "in", "0", ac=1.0)
        c.add_inductor("L1", "in", "mid", 1e-6)
        c.add_resistor("R1", "mid", "0", 50.0)
        sweep = MnaSystem(c).ac_sweep(np.array([1e5, 1e6]), inductors=["L1"])
        assert sweep.branch_response("L1").shape == (2, sweep.x.shape[1])
        with pytest.raises(KeyError, match="L2"):
            sweep.branch_response("L2")
