"""Ablation — sensitivity pruning versus the full coupling matrix.

The paper's complexity lever: "only the relevant [couplings] have to be
simulated in the field simulating environment".  This bench measures what
the pruning costs in accuracy and what it saves in field simulations on
the baseline buck layout.
"""

import numpy as np

from repro import obs
from repro.converters import COUPLING_BRANCHES
from repro.sensitivity import relevant_pairs
from repro.viz import series_table


def test_ablation_sensitivity_pruning(benchmark, design_flow, layout_comparison, record):
    evaluation = layout_comparison["baseline"]
    all_couplings = evaluation.couplings

    # The span covers pytest-benchmark's rounds, including its own timing
    # loop between the calls (the flow's ranking is cached after its first).
    with obs.get_tracer().span("bench.rounds"):
        ranking = benchmark(design_flow.run_sensitivity)

    full_spectrum = design_flow.predict(all_couplings)
    n_pairs_total = len(ranking)

    rows = []
    for threshold in (0.0, 1.0, 3.0, 6.0, 10.0, 20.0):
        relevant = {e.pair() for e in relevant_pairs(ranking, threshold)}
        owner = COUPLING_BRANCHES
        relevant_refs = {
            tuple(sorted((owner[a], owner[b]))) for a, b in relevant
        }
        pruned = {
            pair: k for pair, k in all_couplings.items() if pair in relevant_refs
        }
        spectrum = design_flow.predict(pruned)
        resolved = spectrum.resolved_lines(full_spectrum)  # spectral nulls excluded
        err = float(np.max(np.abs(spectrum.delta_db(full_spectrum)[resolved])))
        rows.append(
            [
                f"{threshold:.0f}",
                len(relevant),
                f"{100.0 * (1.0 - len(relevant) / n_pairs_total):.0f}%",
                len(pruned),
                f"{err:.2f}",
            ]
        )
    table = series_table(
        [
            "threshold dB",
            "pairs kept",
            "field sims saved",
            "couplings applied",
            "max spectrum error dB",
        ],
        rows,
    )
    record("ablation_sensitivity", table)

    # At the default 3 dB threshold the pruned model must stay within a few
    # dB of the full one while saving most field simulations.
    default_row = rows[2]
    assert float(default_row[4]) < 6.0
    assert int(default_row[1]) < n_pairs_total // 2
