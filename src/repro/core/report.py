"""Markdown report of a complete EMI design-flow run.

Collects every stage of :class:`repro.core.EmiDesignFlow` into one
human-readable document: sensitivity ranking, derived rules, the layout
comparison with per-band levels, and the compliance verdicts — the
artefact an engineer would attach to a design review.
"""

from __future__ import annotations

import numpy as np

from ..emi import CISPR25_CLASS3_PEAK
from .flow import EmiDesignFlow, LayoutEvaluation

__all__ = ["flow_report"]

_BANDS = [
    ("LW 150-300 kHz", 150e3, 300e3),
    ("MW 0.53-1.8 MHz", 530e3, 1.8e6),
    ("SW 5.9-6.2 MHz", 5.9e6, 6.2e6),
    ("CB 26-28 MHz", 26e6, 28e6),
    ("VHF 30-54 MHz", 30e6, 54e6),
    ("FM 87-108 MHz", 87e6, 108e6),
]


def _sensitivity_section(flow: EmiDesignFlow) -> list[str]:
    lines = ["## Sensitivity analysis", ""]
    ranking = flow.run_sensitivity()
    relevant = flow.relevant_pairs()
    lines.append(
        f"{len(ranking)} candidate coupling pairs probed at k = "
        f"{flow.k_threshold}; {len(relevant)} exceed the "
        f"{flow.sensitivity_threshold_db} dB relevance threshold."
    )
    lines.append("")
    lines.append("| rank | coupling pair | impact dB | worst at |")
    lines.append("|---|---|---|---|")
    for i, entry in enumerate(ranking[:10], start=1):
        lines.append(
            f"| {i} | {entry.inductor_a} x {entry.inductor_b} "
            f"| {entry.impact_db:.1f} | {entry.worst_freq / 1e6:.2f} MHz |"
        )
    return lines


def _rules_section(flow: EmiDesignFlow) -> list[str]:
    lines = ["## Derived minimum-distance rules", ""]
    lines.append("| pair | PEMD mm | rotation-proof residual |")
    lines.append("|---|---|---|")
    for rule in flow.derive_rules():
        lines.append(
            f"| {rule.ref_a}-{rule.ref_b} | {rule.pemd * 1e3:.1f} "
            f"| {rule.residual:.2f} |"
        )
    return lines


def _evaluation_section(
    name: str, evaluation: LayoutEvaluation
) -> list[str]:
    lines = [f"### Layout: {name}", ""]
    lines.append(
        f"- min-distance violations: **{evaluation.violations}**"
    )
    lines.append(
        f"- CISPR 25 class-3 worst margin: **{evaluation.worst_margin_db:+.1f} dB** "
        f"({'PASS' if evaluation.passes_limits() else 'FAIL'})"
    )
    strongest = sorted(
        evaluation.couplings.items(), key=lambda kv: -abs(kv[1])
    )[:5]
    pairs = ", ".join(f"{a}-{b} ({k:+.3f})" for (a, b), k in strongest)
    lines.append(f"- strongest measured couplings: {pairs}")
    lines.append("")
    lines.append("| band | max level dBuV | limit dBuV |")
    lines.append("|---|---|---|")
    for label, lo, hi in _BANDS:
        level = evaluation.spectrum.max_dbuv_in(lo, hi)
        limit = CISPR25_CLASS3_PEAK.level_at((lo + hi) / 2.0)
        level_text = f"{level:.1f}" if np.isfinite(level) else "-"
        lines.append(f"| {label} | {level_text} | {limit if limit else '-'} |")
    return lines


def flow_report(
    flow: EmiDesignFlow, evaluations: dict[str, LayoutEvaluation] | None = None
) -> str:
    """Render the whole flow as a Markdown document.

    Args:
        flow: the design flow (sensitivity/rules computed on demand).
        evaluations: named layout evaluations; defaults to the standard
            baseline-versus-optimised comparison.
    """
    if evaluations is None:
        evaluations = flow.compare_layouts()
    design = flow.design
    lines = [
        "# EMI design-flow report",
        "",
        f"Converter: {design.input_voltage:.0f} V -> "
        f"{design.output_voltage:.0f} V @ {design.output_current:.1f} A, "
        f"f_sw = {design.switching_frequency / 1e3:.0f} kHz, "
        f"board {design.board_width * 1e3:.0f} x "
        f"{design.board_height * 1e3:.0f} mm",
        "",
    ]
    lines += _sensitivity_section(flow)
    lines.append("")
    lines += _rules_section(flow)
    lines.append("")
    lines.append("## Layout comparison")
    lines.append("")
    for name, evaluation in evaluations.items():
        lines += _evaluation_section(name, evaluation)
        lines.append("")

    if len(evaluations) == 2:
        first, second = (e.spectrum for e in evaluations.values())
        delta = first.delta_db(second)[first.resolved_lines(second)]
        lines.append(
            f"Peak spectral difference between the layouts: "
            f"**{float(np.max(np.abs(delta))):.1f} dB** — placement alone, "
            "same bill of materials."
        )
    return "\n".join(lines) + "\n"
