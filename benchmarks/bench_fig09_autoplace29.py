"""Figure 9 — automatic placement of the 29-device demo board.

Paper claim: "The task for the method was to place 29 devices on a
specified area by taking 100 minimum distances into account.  Three
functional groups were defined.  The result is a legal component
arrangement and was computed by the method in seconds."
"""

from repro.converters import build_demo_board
from repro.placement import AutoPlacer, DesignRuleChecker, group_spread, total_wirelength
from repro.viz import render_board_svg, series_table


def test_fig09_autoplace29(benchmark, record, out_dir):
    def place_fresh():
        problem = build_demo_board()
        report = AutoPlacer(problem).run()
        return problem, report

    problem, report = benchmark.pedantic(place_fresh, rounds=3, iterations=1)

    markers = DesignRuleChecker(problem).rule_markers()
    satisfied = sum(1 for m in markers if m.satisfied)
    rows = [
        ["devices placed", report.placed_count],
        ["minimum-distance rules", len(problem.rules.min_distance)],
        ["rules evaluated (both placed)", len(markers)],
        ["rules satisfied", satisfied],
        ["violations (all kinds)", report.violations_after],
        ["functional groups", len(problem.groups)],
        ["total wirelength", f"{total_wirelength(problem) * 1e3:.0f} mm"],
    ]
    for group in problem.groups:
        rows.append(
            [f"group '{group.name}' spread", f"{group_spread(problem, group.name) * 1e3:.0f} mm"]
        )
    record("fig09_autoplace29", series_table(["metric", "value"], rows))

    svg = render_board_svg(problem, title="Fig. 9: 29 devices, 100 rules, 3 groups")
    (out_dir / "fig09_autoplace29.svg").write_text(svg)

    assert report.placed_count == 29
    assert report.violations_after == 0
    assert satisfied == len(markers)
    assert report.runtime_s < 30.0  # the paper's "seconds", with headroom
