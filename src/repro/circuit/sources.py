"""Source waveforms and their exact Fourier descriptions.

The frequency-domain EMI flow models the converter's switching node as a
**trapezoidal pulse train**; its harmonic phasors drive the filter/LISN
network one line at a time.  Rather than special-casing the trapezoid, the
Fourier coefficients of *any* periodic piecewise-linear waveform are
computed in closed form, which also covers asymmetric rise/fall times and
ringing-free idealisations of diode current.
"""

from __future__ import annotations

import math
from collections.abc import Callable
from dataclasses import dataclass

import numpy as np

__all__ = [
    "pwl_fourier_coefficient",
    "TrapezoidSource",
    "trapezoid_breakpoints",
]


def pwl_fourier_coefficient(
    times: np.ndarray, values: np.ndarray, period: float, harmonic: int | np.ndarray
) -> complex | np.ndarray:
    """Exact complex Fourier coefficients of a periodic piecewise-linear wave.

    ``c_n = (1/T) * integral_0^T v(t) exp(-j 2 pi n t / T) dt`` with ``v``
    linear between the given breakpoints.  The last breakpoint must be at
    ``t = period`` with ``values[-1] == values[0]`` continuity handled by the
    caller (a jump simply becomes a zero-length ramp — supply two points).

    Args:
        times: strictly increasing breakpoint times, ``times[0] == 0``,
            ``times[-1] == period``.
        values: waveform values at the breakpoints.
        period: waveform period [s].
        harmonic: n >= 0 (n = 0 returns the mean), an int or an integer
            array; the breakpoints are validated once for all of them.

    Returns:
        The coefficient ``c_n`` (a ``complex`` for an int ``harmonic``, else
        a complex array of its shape); the one-sided amplitude of harmonic
        n >= 1 is ``2 |c_n|``.

    Raises:
        ValueError: on malformed breakpoints, a non-positive period or a
            negative or non-integer harmonic.
    """
    t = np.asarray(times, dtype=float)
    v = np.asarray(values, dtype=float)
    n = np.asarray(harmonic)
    if t.shape != v.shape or t.ndim != 1 or len(t) < 2:
        raise ValueError("times/values must be matching 1-D arrays with >= 2 points")
    if period <= 0.0:
        raise ValueError("period must be positive")
    if n.dtype.kind not in "iu":
        raise ValueError(f"harmonic must be an integer, got {harmonic!r}")
    if np.any(n < 0):
        raise ValueError("harmonic must be >= 0")
    if abs(t[0]) > 1e-15 or abs(t[-1] - period) > 1e-12 * max(1.0, period):
        raise ValueError("breakpoints must span exactly [0, period]")
    if np.any(np.diff(t) < 0.0):
        raise ValueError("breakpoint times must be non-decreasing")

    mean = 0.0
    for i in range(len(t) - 1):
        dt = t[i + 1] - t[i]
        mean += 0.5 * (v[i] + v[i + 1]) * dt

    # The n = 0 entries get the mean below; w = 1 keeps their terms finite.
    w = 2.0 * math.pi * np.where(n > 0, n, 1) / period
    assert np.all(w > 0.0), "every n >= 1 (or replaced by 1) and period is positive"
    total = np.zeros(n.shape, dtype=complex)
    for i in range(len(t) - 1):
        t1, t2 = t[i], t[i + 1]
        dt = t2 - t1
        if dt <= 0.0:
            continue  # Zero-length segment encodes a jump; integral is zero.
        v1, v2 = v[i], v[i + 1]
        slope = (v2 - v1) / dt
        e1 = np.exp(-1j * w * t1)
        e2 = np.exp(-1j * w * t2)
        # By parts: int v e^{-jwt} dt = (v1 e1 - v2 e2)/(jw) + slope (e2 - e1)/w^2.
        total += (v1 * e1 - v2 * e2) / (1j * w) + slope * (e2 - e1) / (w * w)
    c = np.where(n > 0, total / period, mean / period)
    return complex(c) if c.ndim == 0 else c


def trapezoid_breakpoints(
    period: float,
    duty: float,
    t_rise: float,
    t_fall: float,
    v_low: float = 0.0,
    v_high: float = 1.0,
) -> tuple[np.ndarray, np.ndarray]:
    """Breakpoints of one period of a trapezoidal pulse.

    The pulse starts rising at t = 0; ``duty`` measures the high time at the
    50 % level, matching how converter duty cycle is specified.

    Raises:
        ValueError: if edges do not fit into the period.
    """
    if not 0.0 < duty < 1.0:
        raise ValueError("duty must be in (0, 1)")
    if t_rise <= 0.0 or t_fall <= 0.0:
        raise ValueError("edge times must be positive")
    t_high = duty * period - 0.5 * (t_rise + t_fall)
    t_low = (1.0 - duty) * period - 0.5 * (t_rise + t_fall)
    if t_high <= 0.0 or t_low <= 0.0:
        raise ValueError("edges too slow for the requested duty/period")
    times = np.array(
        [0.0, t_rise, t_rise + t_high, t_rise + t_high + t_fall, period], dtype=float
    )
    values = np.array([v_low, v_high, v_high, v_low, v_low], dtype=float)
    return times, values


@dataclass
class TrapezoidSource:
    """A trapezoidal switching waveform with exact harmonics.

    Attributes:
        v_low, v_high: rail values [V] (or amperes for a current use).
        switching_frequency: fundamental [Hz].
        duty: 50 %-level duty cycle.
        t_rise, t_fall: edge durations [s].
    """

    v_low: float
    v_high: float
    switching_frequency: float
    duty: float = 0.5
    t_rise: float = 30e-9
    t_fall: float = 30e-9

    def __post_init__(self) -> None:
        if self.switching_frequency <= 0.0:
            raise ValueError("switching frequency must be positive")
        # Validate edge/duty compatibility eagerly.
        self.breakpoints()

    @property
    def period(self) -> float:
        """Switching period [s]."""
        assert self.switching_frequency > 0.0, "validated in __post_init__"
        return 1.0 / self.switching_frequency

    def breakpoints(self) -> tuple[np.ndarray, np.ndarray]:
        """One period's breakpoints, as :func:`trapezoid_breakpoints`."""
        return trapezoid_breakpoints(
            self.period, self.duty, self.t_rise, self.t_fall, self.v_low, self.v_high
        )

    def value_at(self, t: float) -> float:
        """Time-domain value (for transient runs)."""
        times, values = self.breakpoints()
        tau = math.fmod(t, self.period)
        if tau < 0.0:
            tau += self.period
        return float(np.interp(tau, times, values))

    def harmonic(self, n: int | np.ndarray) -> complex | np.ndarray:
        """One-sided phasor of harmonic ``n`` (n = 0 gives the DC mean).

        ``n`` is an int (a ``complex`` comes back) or an integer array.
        """
        c = pwl_fourier_coefficient(*self.breakpoints(), self.period, n)
        one_sided = np.where(np.asarray(n) == 0, c, 2.0 * c)
        return complex(one_sided) if one_sided.ndim == 0 else one_sided

    def harmonic_frequencies(self, f_max: float) -> np.ndarray:
        """All harmonic frequencies up to ``f_max`` (inclusive)."""
        assert self.switching_frequency > 0.0, "validated in __post_init__"
        n_max = int(f_max / self.switching_frequency)
        return self.switching_frequency * np.arange(1, n_max + 1, dtype=float)

    def spectrum_callable(self) -> Callable[[np.ndarray], np.ndarray]:
        """A ``freqs -> phasors`` grid function for ``VoltageSource.spectrum``.

        Harmonics (within ``1e-6 f0``) get their one-sided phasor, every
        other frequency 0.  The breakpoints are built once, here.
        """
        f0 = self.switching_frequency
        times, values = self.breakpoints()

        def spectrum(freqs: np.ndarray) -> np.ndarray:
            assert f0 > 0.0, "switching frequency validated in __post_init__"
            f = np.asarray(freqs, dtype=float)
            n = np.rint(f / f0)
            on_harmonic = (n >= 1) & (np.abs(f - n * f0) <= 1e-6 * f0)
            phasors = np.zeros(f.shape, dtype=complex)
            harmonics = n[on_harmonic].astype(np.int64)
            phasors[on_harmonic] = 2.0 * pwl_fourier_coefficient(
                times, values, self.period, harmonics
            )
            return phasors

        return spectrum

    def envelope_db(self, freqs: np.ndarray) -> np.ndarray:
        """Smooth spectral envelope in dB relative to 1 V.

        The classic two-corner trapezoid bound: flat at ``2 A d``, then
        -20 dB/dec above ``1/(pi t_on)``, then -40 dB/dec above
        ``1/(pi t_edge)`` — handy for plotting against discrete harmonics.
        """
        amplitude = abs(self.v_high - self.v_low)
        d = self.duty
        t_edge = min(self.t_rise, self.t_fall)
        if d <= 0.0 or t_edge <= 0.0:
            raise ValueError("envelope needs duty > 0 and positive edge times")
        f = np.asarray(freqs, dtype=float)
        if np.any(f <= 0.0):
            raise ValueError("envelope is defined for positive frequencies only")
        # 1/(pi d T) written via the fundamental to keep one division.
        f1 = self.switching_frequency / (math.pi * d)
        f2 = 1.0 / (math.pi * t_edge)
        env = np.full_like(f, 2.0 * amplitude * d)
        env = np.where(f > f1, env * f1 / f, env)
        env = np.where(f > f2, env * f2 / f, env)
        return 20.0 * np.log10(np.maximum(env, 1e-30))
