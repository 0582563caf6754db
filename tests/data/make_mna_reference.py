"""Generate ``mna_reference.json`` — the MNA output-identity fixture.

The committed JSON records converter spectra as the condensed MNA solver
(one branch row per series R/L/C chain) computes them; it was regenerated
when the solver condensed, after ``tests/test_mna_condensed_equivalence.py``
had bounded the move against the full-node assembly, and again when the
part self-inductances began solving one filament pair per isometry class
(the move is stated in ``tests/test_mna_reference.py``).
``tests/test_mna_reference.py`` pins the current code to it at rtol 1e-12.
Regenerating it with the current code would turn that check into a
tautology, so only do so when the circuit models or the solver change on
purpose::

    PYTHONPATH=src python tests/data/make_mna_reference.py

Contents (every 8th harmonic of each spectrum, complex volts stored as
``[re, im]`` pairs, frequencies in Hz):

* ``buck``: three designs with layout couplings, each with its emission
  spectrum and its synthetic measurement;
* ``boost``: the boost emission spectrum with couplings;
* ``cmdm``: the positive and negative LISN spectra of the two-LISN model;
* ``buck_hf``: the default buck emission spectrum with layout couplings,
  trace inductances on all four power nets and body-to-body capacitive
  couplings (the high-frequency paths).
"""

from __future__ import annotations

import json
from pathlib import Path

from repro.converters import (
    BoostConverterDesign,
    BuckConverterDesign,
    cmdm_spectra,
    synthesize_measurement,
)
from repro.emi import Spectrum

OUT = Path(__file__).with_name("mna_reference.json")
STRIDE = 8

#: (design keyword arguments, layout couplings by refdes pair).
BUCK_CASES: list[tuple[dict[str, float], dict[tuple[str, str], float]]] = [
    ({}, {("LF1", "L1"): 0.08, ("CX2", "Q1"): -0.05}),
    (
        {"switching_frequency": 400e3, "t_rise": 12e-9, "t_fall": 25e-9},
        {("CX1", "LF1"): 0.12, ("CIN", "Q1"): 0.3, ("L1", "COUT"): -0.02},
    ),
    (
        {"switching_frequency": 150e3, "output_current": 1.2, "t_rise": 45e-9},
        {("LF1", "Q1"): -0.2, ("CX2", "L1"): 0.04},
    ),
]
BOOST_CASE = ({}, {("LF1", "L1"): 0.06, ("CX2", "Q1"): -0.1, ("COUT", "CO2"): 0.2})
CMDM_CASE = ({}, {("LF1", "L1"): 0.08, ("CX1", "Q1"): 0.03})
#: (layout couplings, trace inductances [H] by net, capacitances [F] by pair).
BUCK_HF_CASE = (
    {("LF1", "L1"): 0.08, ("CX2", "Q1"): -0.05, ("CIN", "LF2"): 0.03},
    {"VIN": 15e-9, "VBUS": 8e-9, "VOUT": 20e-9, "VLOAD": 12e-9},
    {("LF1", "Q1"): 0.3e-12, ("CX1", "L1"): 0.2e-12, ("D1", "LF2"): 0.15e-12,
     ("CX3", "Q1"): 0.1e-12},
)


def strided(spectrum: Spectrum) -> dict[str, list]:
    """Every ``STRIDE``-th line as JSON-friendly lists."""
    return {
        "freqs": [float(f) for f in spectrum.freqs[::STRIDE]],
        "values": [[float(v.real), float(v.imag)] for v in spectrum.values[::STRIDE]],
    }


def encode_couplings(couplings: dict[tuple[str, str], float]) -> list[list]:
    return [[a, b, k] for (a, b), k in couplings.items()]


def main() -> None:
    buck = []
    for kwargs, couplings in BUCK_CASES:
        design = BuckConverterDesign(**kwargs)
        buck.append(
            {
                "design": kwargs,
                "couplings": encode_couplings(couplings),
                "emission": strided(design.emission_spectrum(couplings)),
                "measurement": strided(synthesize_measurement(design, couplings)),
            }
        )
    kwargs, couplings = BOOST_CASE
    boost = {
        "design": kwargs,
        "couplings": encode_couplings(couplings),
        "emission": strided(BoostConverterDesign(**kwargs).emission_spectrum(couplings)),
    }
    kwargs, couplings = CMDM_CASE
    positive, negative = cmdm_spectra(BuckConverterDesign(**kwargs), couplings=couplings)
    cmdm = {
        "design": kwargs,
        "couplings": encode_couplings(couplings),
        "positive": strided(positive),
        "negative": strided(negative),
    }
    couplings, traces, capacitive = BUCK_HF_CASE
    buck_hf = {
        "couplings": encode_couplings(couplings),
        "trace_inductances": traces,
        "capacitive": encode_couplings(capacitive),
        "emission": strided(
            BuckConverterDesign().emission_spectrum(
                couplings, capacitive=capacitive, trace_inductances=traces
            )
        ),
    }
    reference = {
        "stride": STRIDE,
        "buck": buck,
        "boost": boost,
        "cmdm": cmdm,
        "buck_hf": buck_hf,
    }
    OUT.write_text(json.dumps(reference, indent=1) + "\n")


if __name__ == "__main__":
    main()
