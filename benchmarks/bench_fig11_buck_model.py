"""Figure 11 — the buck converter test object and its PEEC model.

The paper shows the demonstrator board and the corresponding PEEC model of
"used components, traces, vias and GND".  This benchmark inventories the
reproduction's model of the same system: every part's field model size,
the circuit element counts, and the end-to-end model-build time.
"""

from repro import obs
from repro.converters import COUPLING_BRANCHES
from repro.viz import series_table


def test_fig11_buck_model(benchmark, buck_design, record):
    def build_model():
        circuit, meas = buck_design.emi_circuit()
        problem = buck_design.placement_problem()
        return circuit, meas, problem

    # The span covers pytest-benchmark's rounds, including its own timing
    # loop between the calls.
    with obs.get_tracer().span("bench.rounds"):
        circuit, meas, problem = benchmark(build_model)

    parts = buck_design.parts()
    rows = []
    total_filaments = 0
    for refdes, comp in parts.items():
        n = len(comp.current_path)
        total_filaments += n
        rows.append(
            [
                refdes,
                comp.part_number,
                n,
                f"{comp.self_inductance * 1e9:.1f}",
                f"{comp.mu_eff:.1f}",
                "yes" if refdes in COUPLING_BRANCHES.values() else "-",
            ]
        )
    table = series_table(
        ["refdes", "part", "filaments", "L_self nH", "mu_eff", "EMI branch"], rows
    )
    stats = circuit.stats()
    summary = (
        f"total filaments in the board field model: {total_filaments}\n"
        f"circuit: {stats['nodes']} nodes, "
        f"{stats.get('Inductor', 0)} inductors, "
        f"{stats.get('Capacitor', 0)} capacitors, "
        f"{stats.get('Resistor', 0)} resistors; measurement node {meas!r}\n"
        f"placement problem: {len(problem.components)} components, "
        f"{len(problem.nets)} nets, {len(problem.groups)} groups"
    )
    record("fig11_buck_model", f"{table}\n\n{summary}")

    assert total_filaments > 100  # a real 3-D model, not a stub
    assert stats.get("Inductor", 0) >= len(COUPLING_BRANCHES)
    assert len(problem.components) == 16
