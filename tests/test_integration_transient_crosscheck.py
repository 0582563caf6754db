"""Cross-domain validation: the transient and AC engines must agree.

The paper simulates "either in time or frequency domain"; this suite pins
the two engines of this reproduction against each other:

1. **strict consistency** — a DC-free sinusoidal current driven through
   the LISN + input-filter network must read the same at the measurement
   port in both domains (< 2 dB);
2. **switching realism** — an actual switching buck (switch + diode) is
   run in the time domain; replaying its *measured* switch-leg current
   harmonics through the AC solver reproduces the LISN harmonics (Hann
   windowing suppresses the start-up transient's spectral leakage);
3. **substitution envelope** — the idealised trapezoid source the EMI
   flow uses lands within its documented envelope of the truth at the
   fundamental.
"""

import math

import numpy as np
import pytest

from repro.circuit import Circuit, MnaSystem, TransientSolver, TrapezoidSource
from repro.emi import add_lisn

F_SW = 250e3
PERIOD = 1.0 / F_SW
DUTY = 0.42
VIN = 12.0
RLOAD = 6.0
N_FFT_PERIODS = 32
SAMPLES_PER_PERIOD = 400


def _add_filter(c: Circuit) -> None:
    """Shared passive input network (damped, bench-realistic)."""
    c.add_real_capacitor("CX1", "vin", "0", 1.5e-6, esr=0.02, esl=14e-9)
    c.add_real_inductor("LF1", "vin", "vbus", 5.5e-6, esr=0.02)
    c.add_resistor("RDAMP", "vin", "vbus", 33.0)
    c.add_real_capacitor("CX2", "vbus", "0", 1.5e-6, esr=0.02, esl=14e-9)
    c.add_real_capacitor("CIN", "vbus", "0", 10e-6, esr=0.05, esl=10e-9)


def _hann_harmonics(samples: np.ndarray, bins: range) -> dict[int, float]:
    """Window-normalised harmonic amplitudes (startup leakage suppressed)."""
    n = len(samples)
    window = np.hanning(n)
    spectrum = np.fft.rfft(samples * window)
    scale = 2.0 / window.sum()
    return {h: float(abs(spectrum[N_FFT_PERIODS * h])) * scale for h in bins}


class TestEngineConsistency:
    def test_sine_stimulus_agrees_across_domains(self):
        """DC-free single tone: both engines solve the same network."""
        f0 = 3.0 * F_SW
        c = Circuit()
        c.add_vsource("VSUP", "supply", "0", waveform=lambda t: 0.0, ac=0.0)
        add_lisn(c, "LISN", "supply", "vin")
        _add_filter(c)
        c.add_isource(
            "IT",
            "vbus",
            "0",
            waveform=lambda t: 0.2 * math.sin(2 * math.pi * f0 * t),
            spectrum=lambda f: np.where(np.abs(f - f0) < 1.0, -0.2j, 0.0),
        )
        dt = 1.0 / f0 / SAMPLES_PER_PERIOD
        result = TransientSolver(c).run(120.0 / f0, dt)
        n = N_FFT_PERIODS * SAMPLES_PER_PERIOD
        v = result.voltage("LISN.meas")[-n:]
        measured = 2.0 * abs(np.fft.rfft(v)[N_FFT_PERIODS]) / n
        predicted = abs(MnaSystem(c).solve_ac(f0).voltage("LISN.meas"))
        delta_db = 20.0 * math.log10(predicted / measured)
        assert abs(delta_db) < 2.0


def transient_circuit() -> Circuit:
    c = Circuit("time domain buck")
    c.add_vsource("VSUP", "supply", "0", waveform=lambda t: VIN)
    add_lisn(c, "LISN", "supply", "vin")
    _add_filter(c)
    c.add_switch(
        "S1",
        "vbus",
        "sw",
        r_on=20e-3,
        r_off=1e7,
        control=lambda t: (t % PERIOD) < DUTY * PERIOD,
    )
    c.add_diode("D1", "0", "sw", vf=0.4, r_on=15e-3)
    # COUT sized so the output settles well inside the simulated window.
    c.add_inductor("L1", "sw", "vout", 13e-6)
    c.add_capacitor("COUT", "vout", "0", 10e-6)
    c.add_resistor("RL", "vout", "0", RLOAD)
    return c


def frequency_circuit(source_spectrum) -> Circuit:
    """The same linear network, driven at the switch leg by a spectrum."""
    c = Circuit("frequency domain buck")
    c.add_vsource("VSUP", "supply", "0", ac=0.0)
    add_lisn(c, "LISN", "supply", "vin")
    _add_filter(c)
    c.add_isource("INOISE", "vbus", "0", spectrum=source_spectrum)
    return c


@pytest.fixture(scope="module")
def transient_run():
    """Steady-state transient data: LISN harmonics + switch-current harmonics."""
    circuit = transient_circuit()
    dt = PERIOD / SAMPLES_PER_PERIOD
    result = TransientSolver(circuit).run(150 * PERIOD, dt)
    n = N_FFT_PERIODS * SAMPLES_PER_PERIOD

    v_meas = result.voltage("LISN.meas")[-n:]
    v_vbus = result.voltage("vbus")[-n:]
    v_sw = result.voltage("sw")[-n:]
    times = result.times[-n:]
    on = (times % PERIOD) < DUTY * PERIOD
    i_switch = (v_vbus - v_sw) / np.where(on, 20e-3, 1e7)

    # Complex harmonics of the switch current (Hann, window-normalised),
    # keeping phase so the replay is faithful.
    window = np.hanning(n)
    scale = 2.0 / window.sum()
    spec_i = np.fft.rfft(i_switch * window) * scale
    i_harm = {h: complex(spec_i[N_FFT_PERIODS * h]) for h in range(1, 8)}
    v_harm = _hann_harmonics(v_meas, range(1, 8))
    i_load = float(np.mean(result.voltage("vout")[-n:]) / RLOAD)
    return v_harm, i_harm, i_load


class TestSwitchingBuck:
    def test_converter_operates(self, transient_run):
        _, _, i_load = transient_run
        assert 0.5 < i_load < 1.2

    def test_replayed_current_reproduces_lisn_harmonics(self, transient_run):
        v_harm, i_harm, _ = transient_run

        table = np.array([i_harm.get(h, 0.0) for h in range(max(i_harm) + 1)])

        def spectrum(freqs: np.ndarray) -> np.ndarray:
            h = np.rint(freqs / F_SW).astype(int)
            known = (h < len(table)) & (np.abs(freqs - h * F_SW) <= 1.0)
            return np.where(known, table[np.clip(h, 0, len(table) - 1)], 0.0)

        mna = MnaSystem(frequency_circuit(spectrum))
        for h in (1, 2, 3):
            predicted = abs(mna.solve_ac(h * F_SW).voltage("LISN.meas"))
            measured = v_harm[h]
            delta_db = 20.0 * math.log10(
                max(predicted, 1e-15) / max(measured, 1e-15)
            )
            # Residual window leakage and switching-edge discretisation
            # leave a few dB; anything beyond would flag an engine bug.
            assert abs(delta_db) < 6.0, f"harmonic {h}: {delta_db:+.1f} dB"

    def test_trapezoid_substitution_fundamental(self, transient_run):
        v_harm, _, i_load = transient_run
        source = TrapezoidSource(
            0.0, i_load, F_SW, duty=DUTY, t_rise=40e-9, t_fall=40e-9
        )
        mna = MnaSystem(frequency_circuit(source.spectrum_callable()))
        predicted = abs(mna.solve_ac(F_SW).voltage("LISN.meas"))
        delta_db = abs(20.0 * math.log10(predicted / v_harm[1]))
        # The flat-top trapezoid ignores the inductor current ramp; ~12 dB
        # envelope accuracy at the fundamental is the honest expectation.
        assert delta_db < 12.0

    def test_harmonics_decay(self, transient_run):
        v_harm, _, _ = transient_run
        assert v_harm[5] < v_harm[1]
