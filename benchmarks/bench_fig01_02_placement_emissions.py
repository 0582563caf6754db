"""Figures 1 & 2 — conducted noise of unfavourable vs optimised placement.

Paper claim: the same components, topology and placement area produce
severely different CISPR 25 conducted emissions depending only on passive-
component placement; the optimised layout reduces emissions by up to
~20 dB and clears the limit line the unfavourable one exceeds.
"""

import numpy as np

from repro.converters import layout_couplings, COUPLING_BRANCHES
from repro.emi import CISPR25_CLASS3_PEAK, LINE_FLOOR_DBUV
from repro.viz import series_table, spectrum_plot


def test_fig01_02_placement_emissions(benchmark, design_flow, layout_comparison, record):
    baseline = layout_comparison["baseline"]
    optimized = layout_comparison["optimized"]

    # Benchmark kernel: the per-layout verification (field sim + spectrum).
    problem = baseline.problem

    def verify_layout():
        ks = layout_couplings(
            problem, refdes_of_interest=list(COUPLING_BRANCHES.values())
        )
        return design_flow.predict(ks)

    benchmark(verify_layout)

    b = baseline.spectrum
    o = optimized.spectrum
    improvement = b.delta_db(o)[b.resolved_lines(o)]  # spectral nulls excluded

    bands = [
        ("LW 150-300 kHz", 150e3, 300e3),
        ("MW 0.53-1.8 MHz", 530e3, 1.8e6),
        ("SW 5.9-6.2 MHz", 5.9e6, 6.2e6),
        ("CB 26-28 MHz", 26e6, 28e6),
        ("VHF 30-54 MHz", 30e6, 54e6),
        ("FM 87-108 MHz", 87e6, 108e6),
    ]
    rows = []
    for label, lo, hi in bands:
        limit = CISPR25_CLASS3_PEAK.level_at((lo + hi) / 2.0)
        # A band whose strongest line is a numerical null has no level to
        # compare (same floor as the per-line improvement above).
        b_max, o_max = b.max_dbuv_in(lo, hi), o.max_dbuv_in(lo, hi)
        resolved = b_max > LINE_FLOOR_DBUV and o_max > LINE_FLOOR_DBUV
        rows.append(
            [
                label,
                round(b_max, 1) if b_max > LINE_FLOOR_DBUV else "null",
                round(o_max, 1) if o_max > LINE_FLOOR_DBUV else "null",
                round(b_max - o_max, 1) if resolved else "-",
                limit if limit is not None else "-",
            ]
        )
    table = series_table(
        ["band", "unfavourable dBuV", "optimised dBuV", "delta dB", "limit"], rows
    )
    plot = spectrum_plot(
        {
            "unfavourable": design_flow.receiver_trace(b),
            "optimised": design_flow.receiver_trace(o),
        },
        limit=CISPR25_CLASS3_PEAK,
        height=18,
    )
    summary = (
        f"max per-line improvement: {float(np.max(improvement)):.1f} dB\n"
        f"baseline worst margin:  {baseline.worst_margin_db:+.1f} dB "
        f"(passes={baseline.passes_limits()})\n"
        f"optimised worst margin: {optimized.worst_margin_db:+.1f} dB "
        f"(passes={optimized.passes_limits()})"
    )
    record("fig01_02_placement_emissions", f"{table}\n\n{plot}\n\n{summary}")

    # Shape assertions mirroring the paper.
    assert float(np.max(improvement)) > 8.0
    assert optimized.worst_margin_db > baseline.worst_margin_db
    assert baseline.violations > 0 and optimized.violations == 0
