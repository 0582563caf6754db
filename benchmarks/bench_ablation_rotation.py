"""Ablation — the optimal-rotation step of the automatic placer.

Step 1 of the paper's method minimises the total sum of minimum distances
by rotating components.  This bench runs the placer with and without that
step and reports the EMD budget, the achieved layout area and wirelength.
"""

from repro import obs
from repro.placement import (
    AutoPlacer,
    PlacementError,
    RotationOptimizer,
    placement_area,
    total_wirelength,
)
from repro.viz import series_table


def test_ablation_rotation(benchmark, design_flow, record):
    def rotation_step():
        problem = design_flow.problem_with_rules()
        return RotationOptimizer(problem).optimize()

    with obs.get_tracer().span("bench.rounds"):
        plan = benchmark(rotation_step)

    results = {}
    for label, enabled in (("with rotation", True), ("without rotation", False)):
        problem = design_flow.problem_with_rules()
        try:
            # Each variant's wall time is its span in the BENCH report.
            with obs.get_tracer().span(f"bench.{label.replace(' ', '_')}"):
                report = AutoPlacer(problem, optimize_rotation=enabled).run()
            results[label] = {
                "violations": report.violations_after,
                "area_cm2": placement_area(problem) * 1e4,
                "wirelength_mm": total_wirelength(problem) * 1e3,
            }
        except PlacementError as exc:
            results[label] = {"failed": str(exc)}

    rows = []
    for label, data in results.items():
        if "failed" in data:
            rows.append([label, "FAILED", "-", "-"])
        else:
            rows.append(
                [
                    label,
                    data["violations"],
                    f"{data['area_cm2']:.1f}",
                    f"{data['wirelength_mm']:.0f}",
                ]
            )
    table = series_table(["variant", "violations", "area cm^2", "wirelength mm"], rows)
    summary = (
        f"rotation step: EMD sum {plan.initial_emd_sum * 1e3:.1f} mm -> "
        f"{plan.final_emd_sum * 1e3:.1f} mm in {plan.passes} pass(es)"
    )
    record("ablation_rotation", f"{table}\n\n{summary}")

    assert plan.final_emd_sum <= plan.initial_emd_sum
    assert "failed" not in results["with rotation"]
    assert results["with rotation"]["violations"] == 0
