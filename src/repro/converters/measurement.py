"""Synthetic CISPR 25 measurement — the substitute for the paper's test bench.

The original work measured a physical buck converter on a CISPR 25 bench
(Figs. 1, 2, 12).  That hardware is a data gate this reproduction cannot
cross, so — per the substitution rule documented in DESIGN.md — the
"measurement" is synthesised from the *full* coupled model, which is
precisely what the paper validates the model against in Fig. 14 ("good
coincidence is achieved only by including magnetic couplings").

To keep the comparison honest the synthetic measurement is **not** the
prediction verbatim; it adds the effects a real bench exhibits:

* component-tolerance detuning — every parasitic L/C in the model is
  perturbed within its tolerance band (seeded, reproducible);
* multiplicative gain ripple (receiver/cabling frequency response);
* an additive receiver noise floor.
"""

from __future__ import annotations

import numpy as np

from ..circuit import Circuit, MnaSystem
from ..emi import Spectrum
from .boost import BoostConverterDesign
from .buck import BuckConverterDesign

__all__ = ["synthesize_measurement", "perturb_circuit"]


def perturb_circuit(
    circuit: Circuit, rng: np.random.Generator, tolerance: float = 0.15
) -> Circuit:
    """A copy of the circuit with every L and C detuned within tolerance.

    Resistors are left alone (their tolerance hardly moves resonances);
    sources and couplings are preserved.
    """
    from ..circuit.elements import Capacitor, Inductor

    variant = circuit.clone()
    for element in variant.elements:
        if isinstance(element, Capacitor):
            element.capacitance *= float(rng.uniform(1.0 - tolerance, 1.0 + tolerance))
        elif isinstance(element, Inductor):
            element.inductance *= float(rng.uniform(1.0 - tolerance, 1.0 + tolerance))
    return variant


def synthesize_measurement(
    design: BuckConverterDesign | BoostConverterDesign,
    couplings: dict[tuple[str, str], float],
    seed: int = 2008,
    tolerance: float = 0.15,
    gain_ripple_db: float = 2.0,
    noise_floor_dbuv: float = 8.0,
    f_max: float = 108e6,
) -> Spectrum:
    """The emulated bench measurement for a given layout's couplings.

    Args:
        design: the converter under test.
        couplings: the layout's coupling map (from
            :func:`repro.converters.layout_couplings`).
        seed: RNG seed — 2008, reproducibly, for the venue year.
        tolerance: L/C detuning band.
        gain_ripple_db: 1-sigma of the smooth multiplicative ripple.
        noise_floor_dbuv: additive receiver floor.

    Returns:
        Line spectrum at the LISN port, same grid as the prediction.
    """
    rng = np.random.default_rng(seed)
    circuit, meas = design.emi_circuit(couplings)
    variant = perturb_circuit(circuit, rng, tolerance)
    freqs = design.harmonic_frequencies(f_max)
    values = MnaSystem(variant).ac_sweep(freqs).voltages(meas)

    # Smooth gain ripple: random walk in log-frequency, low-pass filtered.
    walk = rng.standard_normal(len(freqs))
    kernel = np.hanning(15)
    kernel /= kernel.sum()
    smooth = np.convolve(walk, kernel, mode="same")
    std = float(np.std(smooth)) or 1.0
    ripple_db = gain_ripple_db * smooth / std
    values = values * 10.0 ** (ripple_db / 20.0)

    # Additive noise floor (incoherent).
    floor_v = 1e-6 * 10.0 ** (noise_floor_dbuv / 20.0)
    noise = floor_v * rng.rayleigh(scale=1.0 / np.sqrt(2.0), size=len(freqs))
    magnitudes = np.sqrt(np.abs(values) ** 2 + noise**2)
    phases = np.angle(values)
    return Spectrum(freqs, magnitudes * np.exp(1j * phases))
