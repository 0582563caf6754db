"""Converter spectra are pinned to recorded MNA outputs.

``tests/data/mna_reference.json`` holds every 8th harmonic of the buck
emission spectrum and synthetic measurement (three designs with layout
couplings), the boost emission spectrum, the CM/DM two-LISN spectra and the
buck with its high-frequency paths (``buck_hf``: trace inductances on all
four power nets and capacitive couplings), as computed by the condensed MNA
solver (one branch row per series chain).
It was generated with::

    PYTHONPATH=src python tests/data/make_mna_reference.py

The current code must reproduce it to rtol 1e-12, which holds on any
host's LAPACK while still catching any change in the circuit layer.  The
condensed solver moved the previous (full-node) values by at most 1.3e-8
relative and 1.0e-7 dB on resolved lines;
``tests/test_mna_condensed_equivalence.py`` bounds that move.
``buck_hf`` was recorded while the ``VOUT`` and ``VLOAD`` traces still
followed their series parts L1 and LF2; putting them ahead of those parts,
as every trace now sits, moves its lines by at most 4.2e-13 relative.

The file was regenerated when the part self-inductances began solving one
filament pair per isometry class (``loop_self_inductance``), which moves
each part's L at rounding level (at most 7e-16 relative).  Through the
circuit that moved 4 of 90 ``buck[2]`` emission lines, 1 of its 90
measurement lines and 5 of 54 ``boost`` lines by more than 1e-12, all
near nulls: at most 9.0e-12 relative (6.6e-19 V absolute) on the
``buck[2]`` emission, 1.4e-12 on its measurement and 2.0e-12 on the
boost.  Every other line moved by less than 5e-13 relative.

It was regenerated once more when the Neumann quadrature began building
``r^2`` one coordinate plane at a time and contracting with a two-operand
einsum, which moves each library part's self-inductance by at most
2.0e-16 relative.  ``make_mna_reference.py --diff`` showed 2 of 90 ``buck[2]``
emission lines (93.75 and 96.15 MHz, at most 2.1e-12 relative, 1.1e-19 V)
and 2 of its 90 measurement lines (86.55 and 87.75 MHz, at most 1.8e-11
relative, 2.5e-17 V) beyond 1e-12, all near nulls of a spectrum that
peaks near 1e-2 V.  Every other line moved by at most 3.3e-13 relative.
"""

import json
from pathlib import Path

import numpy as np
import pytest

from repro.converters import (
    BoostConverterDesign,
    BuckConverterDesign,
    cmdm_spectra,
    synthesize_measurement,
)

REFERENCE = json.loads((Path(__file__).parent / "data" / "mna_reference.json").read_text())
RTOL = 1e-12
STRIDE = REFERENCE["stride"]


def couplings_of(case: dict) -> dict[tuple[str, str], float]:
    return {(a, b): k for a, b, k in case["couplings"]}


def assert_matches(spectrum, expected: dict) -> None:
    np.testing.assert_array_equal(spectrum.freqs[::STRIDE], expected["freqs"])
    values = np.array([complex(re, im) for re, im in expected["values"]])
    np.testing.assert_allclose(spectrum.values[::STRIDE], values, rtol=RTOL, atol=0.0)


@pytest.mark.parametrize("index", range(len(REFERENCE["buck"])))
def test_buck_emission_and_measurement(index):
    case = REFERENCE["buck"][index]
    design = BuckConverterDesign(**case["design"])
    couplings = couplings_of(case)
    assert_matches(design.emission_spectrum(couplings), case["emission"])
    assert_matches(synthesize_measurement(design, couplings), case["measurement"])


def test_boost_emission():
    case = REFERENCE["boost"]
    design = BoostConverterDesign(**case["design"])
    assert_matches(design.emission_spectrum(couplings_of(case)), case["emission"])


def test_cmdm_spectra():
    case = REFERENCE["cmdm"]
    positive, negative = cmdm_spectra(
        BuckConverterDesign(**case["design"]), couplings=couplings_of(case)
    )
    assert_matches(positive, case["positive"])
    assert_matches(negative, case["negative"])


def test_buck_hf_emission():
    case = REFERENCE["buck_hf"]
    spectrum = BuckConverterDesign().emission_spectrum(
        couplings_of(case),
        capacitive={(a, b): value for a, b, value in case["capacitive"]},
        trace_inductances=case["trace_inductances"],
    )
    assert_matches(spectrum, case["emission"])
