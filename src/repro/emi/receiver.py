"""EMI test receiver model: resolution-bandwidth binning and detectors.

A measurement receiver sweeps a tuned filter of standardised resolution
bandwidth (RBW) across the band and reports the detector output per tuned
frequency.  For discrete switching harmonics this reduces to combining the
lines that fall inside the RBW window:

* **peak detector** — coherent worst case: the *sum of magnitudes*;
* **average detector** — power-style combination (root-sum-square), a good
  proxy for the average detector on pulsed spectra without modelling the
  full video filter.

CISPR 16-1-1 bands: 9 kHz RBW in band B (150 kHz–30 MHz) and 120 kHz in
bands C/D (30 MHz–1 GHz), which is what CISPR 25 conducted measurements
use.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .spectrum import Spectrum, dbuv_to_volts, volts_to_dbuv

__all__ = ["EmiReceiver", "cispr_rbw"]


def cispr_rbw(freq: float) -> float:
    """CISPR resolution bandwidth for a tuned frequency [Hz]."""
    if freq < 150e3:
        return 200.0  # band A
    if freq < 30e6:
        return 9e3  # band B
    return 120e3  # bands C/D


def quasi_peak_correction_db(pulse_rate_hz: float, tuned_freq: float) -> float:
    """Quasi-peak reading relative to peak, for a pulsed signal [dB <= 0].

    CISPR 16-1-1's quasi-peak detector weights signals by repetition rate:
    at high pulse repetition frequencies (PRF) the charge circuit keeps up
    and QP -> peak; at low PRF the reading drops.  This implements the
    standard's tabulated weighting as a smooth fit per band:

    * band B (9 kHz RBW):  0 dB above ~10 kHz PRF, dropping with
      ``20 log10(prf / prf_corner)`` below, floored at the single-pulse
      weighting (-43 dB);
    * bands C/D (120 kHz RBW): corner at ~100 kHz PRF, floor -20 dB.

    A converter switching at 250 kHz therefore reads QP = peak in band B —
    the reason the paper's peak plots are the compliance-relevant ones.
    """
    if pulse_rate_hz <= 0.0:
        raise ValueError("pulse rate must be positive")
    corner, floor = (10e3, -43.0) if tuned_freq < 30e6 else (100e3, -20.0)
    if pulse_rate_hz >= corner:
        return 0.0
    import math

    return max(20.0 * math.log10(pulse_rate_hz / corner), floor)


@dataclass
class EmiReceiver:
    """Sweeping measurement receiver.

    Attributes:
        detector: ``"peak"``, ``"average"`` or ``"quasi-peak"``.
        noise_floor_dbuv: additive receiver noise floor.
        pulse_rate_hz: repetition rate assumed by the quasi-peak weighting
            (the converter's switching frequency).
    """

    detector: str = "peak"
    noise_floor_dbuv: float = 0.0
    pulse_rate_hz: float = 250e3

    def __post_init__(self) -> None:
        if self.detector not in ("peak", "average", "quasi-peak"):
            raise ValueError("detector must be 'peak', 'average' or 'quasi-peak'")

    def measure_at(self, spectrum: Spectrum, tuned_freq: float) -> float:
        """Detector reading at one tuned frequency [dBµV]."""
        rbw = cispr_rbw(tuned_freq)
        lo, hi = tuned_freq - rbw / 2.0, tuned_freq + rbw / 2.0
        window = spectrum.band(lo, hi)
        if len(window) == 0:
            return self.noise_floor_dbuv
        mags = window.magnitudes()
        if self.detector == "average":
            level = float(volts_to_dbuv(float(np.sqrt(np.sum(mags**2)))))
        else:
            level = float(volts_to_dbuv(float(np.sum(mags))))
            if self.detector == "quasi-peak":
                level += quasi_peak_correction_db(self.pulse_rate_hz, tuned_freq)
        return max(level, self.noise_floor_dbuv)

    def sweep(self, spectrum: Spectrum, tuned_freqs: np.ndarray) -> Spectrum:
        """Receiver trace over a grid of tuned frequencies.

        Returns a :class:`Spectrum` whose values are real magnitudes (the
        detector output voltage), so its ``dbuv()`` is the familiar plot.
        """
        tuned = np.asarray(tuned_freqs, dtype=float)
        levels_dbuv = np.array([self.measure_at(spectrum, f) for f in tuned])
        return Spectrum(tuned, np.asarray(dbuv_to_volts(levels_dbuv), dtype=complex))

    def display_trace(self, spectrum: Spectrum, grid: np.ndarray) -> Spectrum:
        """Max-hold display binning: each grid point reports the strongest
        line in its surrounding log-frequency bin.

        A real receiver steps by at most RBW/2 and therefore never skips a
        line; plotting tools then decimate with max-hold.  This method
        reproduces that decimated trace directly: bins are the midpoints
        between consecutive grid frequencies, and empty bins read the noise
        floor.  Use this (not :meth:`sweep`) when comparing coarse plotted
        curves like the paper's figures.
        """
        grid = np.asarray(grid, dtype=float)
        if len(grid) < 2 or np.any(np.diff(grid) <= 0.0):
            raise ValueError("grid must be increasing with >= 2 points")
        edges = np.empty(len(grid) + 1)
        edges[1:-1] = np.sqrt(grid[:-1] * grid[1:])
        edges[0] = grid[0] ** 2 / edges[1]
        edges[-1] = grid[-1] ** 2 / edges[-2]
        levels = np.full(len(grid), self.noise_floor_dbuv)
        line_levels = spectrum.dbuv()
        idx = np.searchsorted(edges, spectrum.freqs) - 1
        for i, level in zip(idx, line_levels, strict=True):
            if 0 <= i < len(grid):
                levels[i] = max(levels[i], float(level))
        volts = 1e-6 * 10.0 ** (levels / 20.0)
        return Spectrum(grid, volts.astype(complex))

    @staticmethod
    def standard_grid(f_start: float = 150e3, f_stop: float = 108e6, points: int = 240) -> np.ndarray:
        """Logarithmic tuned-frequency grid covering the CISPR 25 range."""
        if f_stop <= f_start or points < 2:
            raise ValueError("need f_stop > f_start and points >= 2")
        return np.logspace(np.log10(f_start), np.log10(f_stop), points)
