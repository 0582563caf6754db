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
from .buck import BuckConverterDesign, capacitance_of

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
    parts = design.parts()
    c = Circuit(title="buck converter CM/DM model")

    # Supply between the two feed lines; chassis is node "0".
    c.add_vsource("VSUP", "supply_p", "supply_n", dc=design.input_voltage, ac=0.0)
    # Bond the supply side to chassis softly (bench: artificial network gnd).
    c.add_resistor("RBOND", "supply_n", "0", 1e3)
    add_lisn(c, "LISN_P", "supply_p", "vin")
    add_lisn(c, "LISN_N", "supply_n", "pgnd")

    # Input filter referenced to the converter's power ground "pgnd".
    cx1 = parts["CX1"]
    c.add_real_capacitor("CX1", "vin", "pgnd", capacitance_of(cx1), esr=cx1.esr, esl=cx1.esl)
    lf1 = parts["LF1"]
    c.add_real_inductor("LF1", "vin", "vbus", lf1.inductance, esr=lf1.esr, epc=5e-12)
    cx2 = parts["CX2"]
    c.add_real_capacitor("CX2", "vbus", "pgnd", capacitance_of(cx2), esr=cx2.esr, esl=cx2.esl)
    cin = parts["CIN"]
    c.add_real_capacitor("CIN", "vbus", "pgnd", capacitance_of(cin), esr=cin.esr, esl=cin.esl)

    # Switching cell: DM pulse current + switch-node voltage, both
    # referenced to pgnd; the heatsink capacitance closes the CM loop to
    # the chassis.
    i_noise, v_noise = design.sources()
    c.add_inductor("LHOT", "vbus", "vq", design.hot_loop_esl)
    c.add_isource("INOISE", "vq", "pgnd", spectrum=i_noise.spectrum_callable())
    c.add_vsource("VSW", "sw", "pgnd", spectrum=v_noise.spectrum_callable())
    if heatsink_capacitance > 0.0:
        c.add_capacitor("CHS", "sw", "0", heatsink_capacitance)

    # Output path (load referenced to pgnd).
    l1 = parts["L1"]
    c.add_real_inductor("L1", "sw", "vout", l1.inductance, esr=l1.esr, epc=8e-12)
    cout = parts["COUT"]
    c.add_real_capacitor("COUT", "vout", "pgnd", capacitance_of(cout), esr=cout.esr, esl=cout.esl)
    co2 = parts["CO2"]
    c.add_real_capacitor("CO2", "vout", "pgnd", capacitance_of(co2), esr=co2.esr, esl=co2.esl)
    lf2 = parts["LF2"]
    c.add_real_inductor("LF2", "vout", "vload", lf2.inductance, esr=lf2.esr, epc=5e-12)
    cx3 = parts["CX3"]
    c.add_real_capacitor("CX3", "vload", "pgnd", capacitance_of(cx3), esr=cx3.esr, esl=cx3.esl)
    c.add_resistor("RLOAD", "vload", "pgnd", design.output_voltage / design.output_current)

    if couplings:
        design.apply_couplings(c, couplings)
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
