"""Unit tests for the end-to-end EmiDesignFlow facade.

Uses session-scoped fixtures: the expensive artefacts (sensitivity ranking,
derived rules, the layout comparison) are computed once for the whole
suite.
"""

from itertools import combinations

import numpy as np
import pytest

from repro.converters import (
    BOOST_COUPLING_BRANCHES,
    COUPLING_BRANCHES,
    BoostConverterDesign,
    BuckConverterDesign,
)


class TestSensitivityStage:
    def test_ranking_covers_all_branch_pairs(self, design_flow):
        entries = design_flow.run_sensitivity()
        n = len(COUPLING_BRANCHES)
        assert len(entries) == n * (n - 1) // 2

    def test_ranking_cached(self, design_flow):
        assert design_flow.run_sensitivity() is design_flow.run_sensitivity()

    def test_relevant_pairs_subset(self, design_flow):
        relevant = design_flow.relevant_pairs()
        assert 0 < len(relevant) < len(design_flow.run_sensitivity())
        assert all(e.impact_db >= design_flow.sensitivity_threshold_db for e in relevant)

    def test_input_filter_pairs_dominate(self, design_flow):
        # The most dangerous couplings involve the LISN-side capacitor CX1.
        top5 = design_flow.run_sensitivity()[:5]
        assert any("CX1.ESL" in (e.inductor_a, e.inductor_b) for e in top5)


class TestRuleStage:
    def test_rules_cover_relevant_pairs(self, design_flow):
        rules = design_flow.derive_rules()
        assert rules
        refs = {r.pair() for r in rules}
        assert len(refs) == len(rules)  # no duplicates

    def test_pemd_magnitudes(self, design_flow):
        for rule in design_flow.derive_rules():
            assert 0.005 < rule.pemd < 0.08
            assert 0.0 <= rule.residual <= 1.0

    def test_problem_with_rules(self, design_flow):
        problem = design_flow.problem_with_rules()
        assert problem.rules.min_distance == design_flow.derive_rules()


class TestComparison:
    def test_baseline_violates_optimized_does_not(self, layout_comparison):
        assert layout_comparison["baseline"].violations > 0
        assert layout_comparison["optimized"].violations == 0

    def test_optimized_layout_quieter(self, layout_comparison):
        b = layout_comparison["baseline"].spectrum
        o = layout_comparison["optimized"].spectrum
        delta = b.dbuv() - o.dbuv()
        # The paper: optimised placement reduces emissions up to ~20 dB;
        # our reproduction must show a double-digit peak improvement.
        assert float(np.max(delta)) > 8.0

    def test_optimized_margin_better(self, layout_comparison):
        assert (
            layout_comparison["optimized"].worst_margin_db
            > layout_comparison["baseline"].worst_margin_db
        )

    def test_couplings_recorded(self, layout_comparison):
        for ev in layout_comparison.values():
            assert ev.couplings
            assert all(abs(k) <= 1.0 for k in ev.couplings.values())

    def test_baseline_has_stronger_couplings(self, layout_comparison):
        base_max = max(abs(k) for k in layout_comparison["baseline"].couplings.values())
        opt_max = max(abs(k) for k in layout_comparison["optimized"].couplings.values())
        assert base_max > opt_max


class TestVerificationHelpers:
    def test_measurement_tracks_full_model(self, design_flow, layout_comparison):
        ev = layout_comparison["baseline"]
        meas = design_flow.measurement_for(ev)
        with_k = ev.spectrum
        without_k = design_flow.predict()
        assert meas.mean_abs_error_db(with_k) < meas.mean_abs_error_db(without_k)

    def test_receiver_trace_grid(self, design_flow, layout_comparison):
        trace = design_flow.receiver_trace(
            layout_comparison["optimized"].spectrum, points=80
        )
        assert len(trace) == 80
        assert trace.freqs[0] == pytest.approx(150e3)

    def test_predict_without_couplings_matches_design(self, design_flow, buck_design):
        a = design_flow.predict()
        b = buck_design.emission_spectrum()
        assert np.allclose(np.abs(a.values), np.abs(b.values))


class TestGroundPlaneFlow:
    def test_plane_changes_rules_and_couplings(self):
        from repro.converters import BuckConverterDesign
        from repro.core import EmiDesignFlow

        # The plane *enhances* the horizontal-axis couplings (image
        # theory), so the rules grow — give the layout room to satisfy
        # them.
        design = BuckConverterDesign(board_width=0.1, board_height=0.08)
        flow = EmiDesignFlow(design, ground_plane_z=-0.5e-3)
        rules = flow.derive_rules()
        assert rules
        problem, _ = flow.place_optimized()
        evaluation = flow.evaluate("shielded", problem)
        assert evaluation.violations == 0
        assert all(abs(k) <= 1.0 for k in evaluation.couplings.values())

    def test_plane_rules_differ_from_free_space(self, design_flow, buck_design):
        from repro.core import EmiDesignFlow

        shielded_flow = EmiDesignFlow(buck_design, ground_plane_z=-0.5e-3)
        free_rules = {r.pair(): r.pemd for r in design_flow.derive_rules()}
        shielded_rules = {r.pair(): r.pemd for r in shielded_flow.derive_rules()}
        common = set(free_rules) & set(shielded_rules)
        assert common
        # The plane moves at least some PEMDs noticeably (either way).
        moved = [
            p for p in common
            if abs(shielded_rules[p] - free_rules[p]) > 0.1 * free_rules[p]
        ]
        assert moved


class TestBoostFlow:
    """The flow reads the branch map of the design it runs on."""

    @pytest.fixture(scope="class")
    def boost_flow(self):
        from repro.core import EmiDesignFlow

        return EmiDesignFlow(BoostConverterDesign())

    def test_designs_carry_the_exported_branch_maps(self):
        assert BuckConverterDesign().coupling_branches is COUPLING_BRANCHES
        assert BoostConverterDesign().coupling_branches is BOOST_COUPLING_BRANCHES

    def test_ranking_covers_the_boost_branch_pairs(self, boost_flow):
        n = len(BOOST_COUPLING_BRANCHES)
        assert len(boost_flow.run_sensitivity()) == n * (n - 1) // 2

    def test_optimized_layout_meets_the_derived_rules(self, boost_flow):
        evaluations = boost_flow.compare_layouts()
        assert boost_flow.derive_rules()
        assert evaluations["optimized"].violations == 0
        assert set(evaluations["optimized"].couplings) <= {
            tuple(sorted(pair)) for pair in combinations(BOOST_COUPLING_BRANCHES.values(), 2)
        }


class TestFlowReport:
    def test_report_structure(self, design_flow, layout_comparison):
        from repro.core import flow_report

        report = flow_report(design_flow, layout_comparison)
        assert report.startswith("# EMI design-flow report")
        assert "## Sensitivity analysis" in report
        assert "## Derived minimum-distance rules" in report
        assert "### Layout: baseline" in report
        assert "### Layout: optimized" in report
        assert "PASS" in report and "FAIL" in report

    def test_report_quotes_rules(self, design_flow, layout_comparison):
        from repro.core import flow_report

        report = flow_report(design_flow, layout_comparison)
        for rule in design_flow.derive_rules():
            assert f"{rule.ref_a}-{rule.ref_b}" in report

    def test_report_headline_delta(self, design_flow, layout_comparison):
        from repro.core import flow_report

        report = flow_report(design_flow, layout_comparison)
        assert "placement alone" in report

    def test_headline_delta_skips_spectral_nulls(self, design_flow, layout_comparison):
        from repro.core import flow_report
        from repro.emi import LINE_FLOOR_DBUV

        base, opt = (e.spectrum for e in layout_comparison.values())
        resolved = base.resolved_lines(opt)
        # The buck source has exact spectral zeros, solved as round-off
        # far below the floor; every other line sits far above it.
        assert not resolved.all()
        for spectrum in (base, opt):
            assert np.all(spectrum.dbuv()[~resolved] < LINE_FLOOR_DBUV - 80.0)
            assert np.all(spectrum.dbuv()[resolved] > LINE_FLOOR_DBUV + 40.0)
        peak = float(np.max(np.abs(base.delta_db(opt)[resolved])))
        assert f"**{peak:.1f} dB**" in flow_report(design_flow, layout_comparison)


class TestFlowObservability:
    """One span per flow stage, with populated counters (obs integration)."""

    FLOW_STAGES = [
        "flow.simulate",
        "flow.sensitivity",
        "flow.rules",
        "flow.placement",
        "flow.verification",
    ]

    @pytest.fixture
    def traced_flow_report(self, monkeypatch):
        from repro import obs
        from repro.core import EmiDesignFlow

        # Shrink the flow (fewer branches, coarse frequency grid) so the
        # end-to-end traced run stays fast; the span structure is identical.
        design = BuckConverterDesign()
        subset = dict(list(COUPLING_BRANCHES.items())[:4])
        monkeypatch.setattr(design, "coupling_branches", subset)
        flow = EmiDesignFlow(design, sensitivity_threshold_db=0.0)
        monkeypatch.setattr(
            flow, "sensitivity_frequencies", lambda: np.array([150e3, 2e6, 30e6])
        )
        tracer = obs.enable(meta={"test": "flow-stages"})
        try:
            flow.predict()
            flow.run_sensitivity()
            flow.derive_rules()
            problem, placement_report = flow.place_optimized()
            flow.evaluate("optimized", problem)
        finally:
            obs.disable()
        return tracer.report(), placement_report

    def test_one_span_per_flow_stage(self, traced_flow_report):
        report, _ = traced_flow_report
        for stage in self.FLOW_STAGES:
            span = report.find(stage)
            assert span is not None, f"missing flow stage span {stage}"
            assert span.count == 1
            assert span.wall_s > 0.0

    def test_stage_spans_are_siblings_at_top_level(self, traced_flow_report):
        report, _ = traced_flow_report
        top = set(report.root.children)
        assert {"flow.sensitivity", "flow.rules", "flow.placement",
                "flow.verification"} <= top

    def test_counters_populated_across_layers(self, traced_flow_report):
        report, _ = traced_flow_report
        totals = report.totals()
        assert totals["circuit.mna_factorizations"] > 0
        assert totals["coupling.sweep_points"] > 0
        assert totals["coupling.cache_misses"] > 0
        assert totals["placement.candidates_scored"] > 0
        assert totals["placement.components_placed"] > 0
        assert totals["sensitivity.probes"] > 0
        assert totals["peec.filament_pairs"] > 0

    def test_placement_runtime_sourced_from_span_tree(self, traced_flow_report):
        report, placement_report = traced_flow_report
        run_span = report.find("placement.run")
        assert run_span is not None
        # runtime_s is the placement.run span's wall time and covers the
        # full three-step method (its children are within it).
        assert placement_report.runtime_s == pytest.approx(run_span.wall_s)
        children_wall = sum(c.wall_s for c in run_span.children.values())
        assert children_wall <= run_span.wall_s + 1e-9
        assert report.find("placement.sequential") is not None

    def test_report_json_round_trips(self, traced_flow_report):
        from repro.obs import RunReport

        report, _ = traced_flow_report
        clone = RunReport.from_json(report.to_json())
        assert clone.to_dict() == report.to_dict()
