"""Spectra in EMC units.

Conducted-emission results are universally reported in **dBµV** against
frequency on a log axis (the paper's Figs. 1/2/12–14).  :class:`Spectrum`
wraps a set of discrete spectral lines (harmonic phasors or receiver
readings) with the conversions and comparisons the benchmarks need.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..circuit.mna import level_db

__all__ = ["LINE_FLOOR_DBUV", "Spectrum", "volts_to_dbuv", "dbuv_to_volts"]

#: Lowest level [dBµV] at which a spectral line is an emission rather
#: than a null.  A trapezoidal switching waveform has exact spectral
#: zeros; the solver returns them as round-off, ~1e-17 V (about
#: -230 dBµV), and a dB difference between two such lines is noise.
#: Every real line of the converters modelled here lies above -60 dBµV.
LINE_FLOOR_DBUV = -100.0


def volts_to_dbuv(volts: np.ndarray | float) -> np.ndarray | float:
    """Convert a voltage magnitude to dBµV (1 µV reference).

    The same conversion as :func:`repro.circuit.mna.level_db` with a
    1 µV reference, including its 1e-30 magnitude floor.
    """
    return level_db(np.asarray(volts, dtype=float), 1e-6)


def dbuv_to_volts(dbuv: np.ndarray | float) -> np.ndarray | float:
    """Convert dBµV back to volts."""
    return 1e-6 * 10.0 ** (np.asarray(dbuv, dtype=float) / 20.0)


@dataclass
class Spectrum:
    """Discrete spectral lines: frequencies [Hz] and complex amplitudes [V].

    The amplitude convention is *one-sided*: a sinusoid ``A sin`` appears
    with ``|value| = A``.
    """

    freqs: np.ndarray
    values: np.ndarray

    def __post_init__(self) -> None:
        self.freqs = np.asarray(self.freqs, dtype=float)
        self.values = np.asarray(self.values, dtype=complex)
        if self.freqs.shape != self.values.shape or self.freqs.ndim != 1:
            raise ValueError("freqs and values must be matching 1-D arrays")
        if np.any(np.diff(self.freqs) <= 0.0):
            raise ValueError("frequencies must be strictly increasing")

    def __len__(self) -> int:
        return len(self.freqs)

    def magnitudes(self) -> np.ndarray:
        """Line magnitudes [V]."""
        return np.abs(self.values)

    def dbuv(self) -> np.ndarray:
        """Line levels in dBµV."""
        return np.asarray(volts_to_dbuv(self.magnitudes()))

    def band(self, f_lo: float, f_hi: float) -> "Spectrum":
        """Sub-spectrum restricted to ``[f_lo, f_hi]``."""
        mask = (self.freqs >= f_lo) & (self.freqs <= f_hi)
        return Spectrum(self.freqs[mask], self.values[mask])

    def max_dbuv_in(self, f_lo: float, f_hi: float) -> float:
        """Highest line level inside a band (``-inf`` if the band is empty)."""
        sub = self.band(f_lo, f_hi)
        if len(sub) == 0:
            return float("-inf")
        return float(np.max(sub.dbuv()))

    def scaled(self, factor: complex) -> "Spectrum":
        """Spectrum multiplied by a constant (e.g. a probe factor)."""
        return Spectrum(self.freqs.copy(), self.values * factor)

    def delta_db(self, other: "Spectrum") -> np.ndarray:
        """Per-line level difference ``self - other`` in dB.

        Raises:
            ValueError: if the frequency grids differ.
        """
        if len(self) != len(other) or not np.allclose(self.freqs, other.freqs):
            raise ValueError("spectra live on different frequency grids")
        return self.dbuv() - other.dbuv()

    def resolved_lines(self, other: "Spectrum") -> np.ndarray:
        """Mask of the lines where both spectra lie above :data:`LINE_FLOOR_DBUV`.

        Level statistics of two spectra (peak or mean ``|ΔdB|``) are
        taken over these lines only, so spectral nulls do not count.
        """
        return (self.dbuv() > LINE_FLOOR_DBUV) & (other.dbuv() > LINE_FLOOR_DBUV)

    def correlation_db(self, other: "Spectrum") -> float:
        """Pearson correlation of the two dB traces (the paper's
        "good coincidence" criterion made quantitative)."""
        a = self.dbuv()
        b = other.dbuv()
        if len(a) != len(b):
            raise ValueError("spectra live on different frequency grids")
        if np.std(a) < 1e-12 or np.std(b) < 1e-12:
            return 0.0
        return float(np.corrcoef(a, b)[0, 1])

    def mean_abs_error_db(self, other: "Spectrum") -> float:
        """Mean absolute level difference in dB over the resolved lines
        (:meth:`resolved_lines`); 0 when no line is resolved."""
        delta = self.delta_db(other)[self.resolved_lines(other)]
        return float(np.mean(np.abs(delta))) if delta.size else 0.0

    @staticmethod
    def from_lines(lines: list[tuple[float, complex]]) -> "Spectrum":
        """Build from (frequency, amplitude) pairs in any order."""
        if not lines:
            raise ValueError("need at least one spectral line")
        lines = sorted(lines, key=lambda fv: fv[0])
        return Spectrum(
            np.array([f for f, _ in lines]), np.array([v for _, v in lines])
        )
