"""Two-line (CM/DM) conducted-emission model of the buck converter.

The single-line model of :class:`BuckConverterDesign` measures the positive
supply line only — exactly what the paper's plots show.  Real CISPR 25
benches instrument *both* lines; the common-/differential-mode split then
tells the designer which choke to grow.  This module builds that two-LISN
model:

* a LISN in the positive **and** the return line, both referenced to the
  chassis (node ``"0"``);
* the converter's power ground becomes a real node (``pgnd``) between the
  return LISN and the circuit;
* the common-mode excitation path is the switch-node-to-chassis parasitic
  capacitance (heatsink/baseplate), the canonical CM source in power
  converters.

The result feeds :func:`repro.emi.separate_modes` with physically coupled
line voltages.
"""

from __future__ import annotations

from ..circuit import Circuit, MnaSystem
from ..emi import Spectrum, add_lisn
from .buck import BuckConverterDesign
from .network import apply_couplings

__all__ = ["build_cmdm_circuit", "cmdm_spectra"]

#: Default switch-node to chassis (heatsink) parasitic capacitance [F].
DEFAULT_HEATSINK_CAPACITANCE = 68e-12


def build_cmdm_circuit(
    design: BuckConverterDesign,
    heatsink_capacitance: float = DEFAULT_HEATSINK_CAPACITANCE,
    couplings: dict[tuple[str, str], float] | None = None,
) -> tuple[Circuit, str, str]:
    """The two-LISN model; returns (circuit, meas_node_P, meas_node_N).

    Args:
        design: converter parameters and parts.
        heatsink_capacitance: switch node -> chassis parasitic [F]; zero
            disables the CM path (pure DM remains).
        couplings: optional magnetic coupling map, applied exactly as in
            the single-line model.

    Raises:
        ValueError: for a negative heatsink capacitance.
    """
    if heatsink_capacitance < 0.0:
        raise ValueError("heatsink capacitance must be non-negative")
    c = Circuit(title="buck converter CM/DM model")

    # Supply between the two feed lines; chassis is node "0".
    c.add_vsource("VSUP", "supply_p", "supply_n", dc=design.input_voltage, ac=0.0)
    # Bond the supply side to chassis softly (bench: artificial network gnd).
    c.add_resistor("RBOND", "supply_n", "0", 1e3)
    add_lisn(c, "LISN_P", "supply_p", "vin")
    add_lisn(c, "LISN_N", "supply_n", "pgnd")

    # The converter is referenced to its power ground "pgnd"; the heatsink
    # capacitance from the switch node closes the CM loop to the chassis.
    design.add_power_path(c, "pgnd", {})
    if heatsink_capacitance > 0.0:
        c.add_capacitor("CHS", "sw", "0", heatsink_capacitance)

    if couplings:
        apply_couplings(c, couplings, design.coupling_branches)
    return c, "LISN_P.meas", "LISN_N.meas"


def cmdm_spectra(
    design: BuckConverterDesign,
    heatsink_capacitance: float = DEFAULT_HEATSINK_CAPACITANCE,
    couplings: dict[tuple[str, str], float] | None = None,
    f_max: float = 108e6,
) -> tuple[Spectrum, Spectrum]:
    """Line spectra (positive, negative) of the two-LISN model."""
    circuit, meas_p, meas_n = build_cmdm_circuit(
        design, heatsink_capacitance, couplings
    )
    freqs = design.harmonic_frequencies(f_max)
    sweep = MnaSystem(circuit).ac_sweep(freqs)
    return Spectrum(freqs, sweep.voltages(meas_p)), Spectrum(freqs, sweep.voltages(meas_n))
