"""Figures 16 & 18 — automatic placement of the buck converter, with groups.

Paper claims: the automatic placement function produces a legal layout of
the buck converter in "less than 1 second" (Fig. 16), and the three
specified functional groups end up "placed in separate coherent areas"
(Fig. 18).
"""

from repro.placement import AutoPlacer, group_centroid, group_spread
from repro.viz import render_board_svg, series_table


def test_fig16_18_autoplace_buck(benchmark, design_flow, record, out_dir):
    def place_fresh():
        problem = design_flow.problem_with_rules()
        report = AutoPlacer(problem).run()
        return problem, report

    problem, report = benchmark.pedantic(place_fresh, rounds=3, iterations=1)

    rows = [
        ["components placed", report.placed_count],
        ["violations", report.violations_after],
        [
            "rotation step gain",
            f"{report.rotation_plan.improvement * 1e3:.1f} mm EMD sum"
            if report.rotation_plan
            else "-",
        ],
    ]
    centroids = {}
    for group in problem.groups:
        spread = group_spread(problem, group.name)
        centroid = group_centroid(problem, group.name)
        centroids[group.name] = centroid
        rows.append(
            [
                f"group '{group.name}'",
                f"spread {spread * 1e3:.0f} mm @ "
                f"({centroid.x * 1e3:.0f}, {centroid.y * 1e3:.0f}) mm",
            ]
        )
    record("fig16_18_autoplace_buck", series_table(["metric", "value"], rows))

    (out_dir / "fig16_18_buck_layout.svg").write_text(
        render_board_svg(problem, title="Figs. 16/18: buck auto-placement with groups")
    )

    assert report.placed_count == len(problem.components)
    assert report.violations_after == 0
    # Paper: under a second for this board size; allow CI headroom.
    assert report.runtime_s < 10.0
    # Fig. 18: the three groups occupy separate areas — centroids apart.
    names = list(centroids)
    for i in range(len(names)):
        for j in range(i + 1, len(names)):
            assert centroids[names[i]].distance_to(centroids[names[j]]) > 5e-3
