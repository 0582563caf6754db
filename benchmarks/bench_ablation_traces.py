"""Ablation — placement-dependent trace parasitics ("inductances of lines").

The paper's system simulation includes the parasitics of the connecting
structures; its Fig. 11 PEEC model covers "traces, vias and GND".  This
bench routes the buck layouts with the Manhattan router, converts route
lengths to trace inductances, and compares the spectra with and without
them — and shows that the optimised (more spread-out) layout pays a route-
length price for its coupling margins.
"""

from repro import obs
from repro.routing import ManhattanRouter, route_inductance
from repro.viz import series_table


def test_ablation_traces(benchmark, design_flow, layout_comparison, record):
    rows = []
    spectra_effect = {}
    for name, evaluation in layout_comparison.items():
        problem = evaluation.problem
        router = ManhattanRouter(problem)
        routes = router.route_all()
        trace_l = design_flow.design.trace_inductances_from_layout(problem)
        total_len = sum(r.total_length() for r in routes.values())

        base = design_flow.design.emission_spectrum(evaluation.couplings)
        traced = design_flow.design.emission_spectrum(
            evaluation.couplings, trace_inductances=trace_l
        )
        effect = traced.mean_abs_error_db(base)
        spectra_effect[name] = effect
        rows.append(
            [
                name,
                f"{total_len * 1e3:.0f}",
                f"{sum(trace_l.values()) * 1e9:.0f}",
                f"{effect:.2f}",
            ]
        )

    def route_baseline():
        return ManhattanRouter(layout_comparison["baseline"].problem).route_all()

    # The span covers pytest-benchmark's rounds, including its own timing
    # loop between the calls.
    with obs.get_tracer().span("bench.rounds"):
        routes = benchmark(route_baseline)
    per_length = {
        net: route_inductance(route) / max(route.total_length(), 1e-9)
        for net, route in routes.items()
        if not route.is_empty()
    }
    nh_per_mm = [v * 1e6 for v in per_length.values()]

    table = series_table(
        ["layout", "total copper mm", "power-net trace L nH", "spectrum effect dB"],
        rows,
    )
    summary = (
        f"trace inductance density: {min(nh_per_mm):.2f}-{max(nh_per_mm):.2f} nH/mm "
        "(rule of thumb ~0.7)"
    )
    record("ablation_traces", f"{table}\n\n{summary}")

    assert all(0.3 < v < 1.5 for v in nh_per_mm)
    assert all(effect > 0.01 for effect in spectra_effect.values())
    # The EMI-aware layout spreads parts => it routes more copper.
    base_len = float(rows[0][1]) if rows[0][0] == "baseline" else float(rows[1][1])
    opt_len = float(rows[1][1]) if rows[1][0] == "optimized" else float(rows[0][1])
    assert opt_len > base_len * 0.8  # spread layouts never come out much shorter
