"""Generate ``mna_reference.json`` — the MNA output-identity fixture.

The committed JSON records converter spectra as the condensed MNA solver
(one branch row per series R/L/C chain) computes them; it was regenerated
when the solver condensed, after ``tests/test_mna_condensed_equivalence.py``
had bounded the move against the full-node assembly, and again when the
part self-inductances began solving one filament pair per isometry class
and when the Neumann quadrature began building distances one coordinate
plane at a time with a two-operand contraction (both moves are stated in
``tests/test_mna_reference.py``).
``tests/test_mna_reference.py`` pins the current code to it at rtol 1e-12.
Regenerating it with the current code would turn that check into a
tautology, so only do so when the circuit models or the solver change on
purpose, and first look at how far they move::

    PYTHONPATH=src python tests/data/make_mna_reference.py --diff
    PYTHONPATH=src python tests/data/make_mna_reference.py

``--diff`` prints, per spectrum, the lines that moved beyond the test's
rtol 1e-12 and the largest relative and absolute move, and writes nothing.

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

import argparse
import json
from pathlib import Path

import numpy as np

from repro.converters import (
    BoostConverterDesign,
    BuckConverterDesign,
    cmdm_spectra,
    synthesize_measurement,
)
from repro.emi import Spectrum

OUT = Path(__file__).with_name("mna_reference.json")
STRIDE = 8
#: The tolerance of ``tests/test_mna_reference.py``.
RTOL = 1e-12

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


def build() -> dict:
    """The reference as the current code computes it."""
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
    return {
        "stride": STRIDE,
        "buck": buck,
        "boost": boost,
        "cmdm": cmdm,
        "buck_hf": buck_hf,
    }


def spectra(reference: dict) -> dict[str, dict]:
    """Every recorded spectrum by case name (``buck[2].emission``, ...)."""
    named = {}
    for index, case in enumerate(reference["buck"]):
        named[f"buck[{index}].emission"] = case["emission"]
        named[f"buck[{index}].measurement"] = case["measurement"]
    named["boost.emission"] = reference["boost"]["emission"]
    named["cmdm.positive"] = reference["cmdm"]["positive"]
    named["cmdm.negative"] = reference["cmdm"]["negative"]
    named["buck_hf.emission"] = reference["buck_hf"]["emission"]
    return named


def diff(committed: dict, current: dict) -> list[str]:
    """Per case: the lines beyond ``RTOL`` and the largest relative and
    absolute move of the current values against the committed ones."""
    report = []
    new = spectra(current)
    for name, old in spectra(committed).items():
        if old["freqs"] != new[name]["freqs"]:
            report.append(f"{name}: frequency grid changed")
            continue
        before = np.array([complex(re, im) for re, im in old["values"]])
        after = np.array([complex(re, im) for re, im in new[name]["values"]])
        moved = np.abs(after - before)
        relative = moved / np.abs(before)
        beyond = np.flatnonzero(moved > RTOL * np.abs(before))
        report.append(
            f"{name}: {len(beyond)} of {len(before)} lines beyond rtol {RTOL:g}; "
            f"max move {relative.max():.2e} relative, {moved.max():.2e} V absolute"
        )
        for line in beyond:
            report.append(
                f"  {old['freqs'][line] / 1e6:9.4f} MHz  |V| {abs(before[line]):.3e} V  "
                f"moved {relative[line]:.2e} relative, {moved[line]:.2e} V"
            )
    return report


def main(argv: list[str] | None = None) -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--diff",
        action="store_true",
        help="print how the current code moves the committed values; write nothing",
    )
    args = parser.parse_args(argv)
    reference = build()
    if args.diff:
        print("\n".join(diff(json.loads(OUT.read_text()), reference)))
    else:
        OUT.write_text(json.dumps(reference, indent=1) + "\n")


if __name__ == "__main__":
    main()
