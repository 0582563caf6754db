"""EXPERIMENTS.md quotes its deterministic numbers from the committed artefacts.

Every bold number in EXPERIMENTS.md (and the choke inductances of the
effective-permeability ablation) is read back from the text artefact in
``benchmarks/out`` that the benchmark wrote, and must equal it to the
digits the table shows.  A re-record that moves a published number, or an
edit of the table that no artefact backs, fails here.  Reads files only:
no benchmark runs and no timing.
"""

import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
OUT = ROOT / "benchmarks" / "out"
EXPERIMENTS = (ROOT / "EXPERIMENTS.md").read_text(encoding="utf-8")

FIG01 = "fig01_02_placement_emissions.txt"
FIG07 = "fig07_bobbin_sizes.txt"
FIG08 = "fig08_cmchoke_positions.txt"
FIG12 = "fig12_14_prediction.txt"
MU_EFF = "ablation_effective_mu.txt"

#: (text quoted in EXPERIMENTS.md, artefact, pattern whose group is the value).
#: The quoted number is the first number of the text.
CLAIMS = [
    ("**−10.4 dB (FAIL)**", FIG01, r"baseline worst margin:\s+(\S+) dB \(passes=False\)"),
    ("**+0.5 dB (PASS)**", FIG01, r"optimised worst margin:\s+(\S+) dB \(passes=True\)"),
    ("**14.4 dB**", FIG01, r"max per-line improvement: (\S+) dB"),
    ("**2.9 nH**", "fig03_capacitor_model.txt", r"geometric ESL\s+(\S+) nH"),
    ("**3.1 %**", "fig04_bobbin_field.txt", r"relative deviation: (\S+) %"),
    ("**12.5 mm**", "fig05_xcap_distance.txt", r"distance for k = 0\.1:\s+(\S+) mm"),
    ("**30.0 mm**", "fig05_xcap_distance.txt", r"distance for k = 0\.01:\s+(\S+) mm"),
    ("**16.2 mm**", FIG07, r"S-S: .* PEMD\(k=0\.01\) = (\S+) mm"),
    ("**22.4 mm**", FIG07, r"S-L: .* PEMD\(k=0\.01\) = (\S+) mm"),
    ("**31.8 mm**", FIG07, r"L-L: .* PEMD\(k=0\.01\) = (\S+) mm"),
    ("**2e−19**", FIG08, r"2-winding: worst orientation-minimised coupling = (\S+)"),
    ("**2.9e−4**", FIG08, r"3-winding: best\s+orientation-minimised coupling = (\S+)"),
    ("**17.7 dB**", FIG12, r"neglecting couplings \(Fig\. 13\)\s+(\S+)"),
    ("**0.9 dB**", FIG12, r"including couplings \(Fig\. 14\)\s+(\S+)"),
    ("**0.998**", FIG12, r"including couplings \(Fig\. 14\)\s+\S+\s+(\S+)"),
    ("**76 % of field sims saved**", "ablation_sensitivity.txt", r"(?m)^\s+3\s+\d+\s+(\d+)%"),
    ("**39 dB above 30 MHz**", "ablation_capacitive.txt", r"30-108 MHz\s+(\S+)"),
    ("1.83 µH air", MU_EFF, r"air (\S+) uH"),
    ("5.50 µH ferrite", MU_EFF, r"ferrite (\S+) uH"),
]

_NUMBER = re.compile(r"[-+]?\d+(?:\.(\d+))?(?:e([-+]?\d+))?")


def quoted(text: str) -> tuple[float, float]:
    """The first number of ``text`` and half a unit of its last digit."""
    match = _NUMBER.search(text.replace("−", "-"))
    assert match, text
    decimals = len(match.group(1) or "")
    exponent = int(match.group(2) or 0)
    return float(match.group(0)), 0.5 * 10.0 ** (exponent - decimals)


def test_every_bold_number_is_pinned():
    pinned = {text for text, _, _ in CLAIMS}
    # Bold spans that open with a number (not bold labels such as "FEM reference (Fig. 4)").
    bold = set(re.findall(r"\*\*[-+−]?\d[^*]*\*\*", EXPERIMENTS))
    assert bold <= pinned, sorted(bold - pinned)


@pytest.mark.parametrize("text, artefact, pattern", CLAIMS, ids=[c[0] for c in CLAIMS])
def test_number_equals_its_artefact(text, artefact, pattern):
    assert text in EXPERIMENTS
    match = re.search(pattern, (OUT / artefact).read_text(encoding="utf-8"))
    assert match, f"{pattern!r} not in {artefact}"
    value, half_unit = quoted(text)
    # Equal to the digits shown: the artefact rounds to the quoted figure.
    assert abs(float(match.group(1)) - value) <= half_unit * (1.0 + 1e-9), (text, match.group(1))


def test_protected_band_range_spans_the_resolved_rows():
    """The "per protected band" range is the min and max delta of the band
    table's resolved rows.  LW, where the blind layout is lucky, is discussed
    on its own; a band without a physical line reads ``-`` and is left out."""
    lines = (OUT / FIG01).read_text(encoding="utf-8").splitlines()
    first = next(i for i, line in enumerate(lines) if line.startswith("---")) + 1
    rows = [re.split(r"\s{2,}", line.strip()) for line in lines[first:]]
    rows = rows[: next(i for i, row in enumerate(rows) if row == [""])]
    deltas = [float(row[3]) for row in rows if row[3] != "-" and not row[0].startswith("LW")]
    assert deltas
    match = re.search(r"improvement (\S+)–(\S+) dB per protected band", EXPERIMENTS)
    assert match
    for text, value in zip(match.groups(), (min(deltas), max(deltas)), strict=True):
        expected, half_unit = quoted(text)
        assert abs(value - expected) <= half_unit * (1.0 + 1e-9), (text, value)
