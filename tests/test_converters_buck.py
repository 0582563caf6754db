"""Unit tests for the buck-converter demonstration system."""

import numpy as np
import pytest

from repro.circuit import MnaSystem
from repro.converters import COUPLING_BRANCHES, BuckConverterDesign, apply_couplings

#: Design parameters that no job can build a spectrum or a board from, and
#: the words of the error each raises at construction.
BAD_PARAMETERS = [
    ({"t_rise": 0.0}, "edge times"),
    ({"t_fall": -1e-9}, "edge times"),
    ({"t_rise": 5e-6}, "edges too slow"),
    ({"board_width": 0.0}, "board extents"),
    ({"board_height": -0.05}, "board extents"),
    ({"hot_loop_esl": 0.0}, "hot-loop ESL"),
]


class TestParameters:
    def test_duty(self, buck_design):
        assert buck_design.duty == pytest.approx(5.0 / 12.0)

    def test_invalid_voltages(self):
        with pytest.raises(ValueError):
            BuckConverterDesign(input_voltage=5.0, output_voltage=12.0)
        with pytest.raises(ValueError):
            BuckConverterDesign(switching_frequency=0.0)

    @pytest.mark.parametrize("current", [0.0, -1.0])
    def test_non_positive_output_current(self, current):
        # RLOAD = Vout / Iout is stamped by emi_circuit().
        with pytest.raises(ValueError, match="output current"):
            BuckConverterDesign(output_current=current)

    @pytest.mark.parametrize("params, message", BAD_PARAMETERS)
    def test_unbuildable_parameters_rejected_at_construction(self, params, message):
        with pytest.raises(ValueError, match=message):
            BuckConverterDesign(**params)

    def test_edges_just_inside_the_period_accepted(self):
        # 4 us period, D = 5/12: the high time takes edges up to 3.33 us.
        design = BuckConverterDesign(t_rise=1.6e-6, t_fall=1.6e-6)
        assert design.sources()[0].breakpoints()[0][-1] == pytest.approx(4e-6)

    def test_parts_cached(self, buck_design):
        assert buck_design.parts() is buck_design.parts()

    def test_part_count(self, buck_design):
        assert len(buck_design.parts()) == 16


class TestPlacementProblem:
    def test_fresh_problem_each_call(self, buck_design):
        p1 = buck_design.placement_problem()
        p2 = buck_design.placement_problem()
        assert p1 is not p2
        assert len(p1.components) == 16

    def test_three_functional_groups(self, buck_design):
        problem = buck_design.placement_problem()
        assert {g.name for g in problem.groups} == {
            "input_filter",
            "power_stage",
            "output_filter",
        }

    def test_nets_reference_valid_parts(self, buck_design):
        problem = buck_design.placement_problem()
        for net in problem.nets:
            for ref, _pad in net.pins:
                assert ref in problem.components

    def test_board_dimensions(self, buck_design):
        problem = buck_design.placement_problem()
        xmin, ymin, xmax, ymax = problem.board(0).outline.bbox()
        assert xmax - xmin == pytest.approx(buck_design.board_width)
        assert ymax - ymin == pytest.approx(buck_design.board_height)


class TestCircuitModel:
    def test_all_coupling_branches_exist(self, buck_design):
        circuit, _ = buck_design.emi_circuit()
        inductors = {e.name for e in circuit.inductors()}
        for branch in COUPLING_BRANCHES:
            assert branch in inductors

    def test_measurement_node_solvable(self, buck_design):
        circuit, meas = buck_design.emi_circuit()
        sol = MnaSystem(circuit).solve_ac(1e6)
        assert np.isfinite(abs(sol.voltage(meas)))

    def test_apply_couplings_count(self, buck_design):
        circuit, _ = buck_design.emi_circuit()
        applied = apply_couplings(
            circuit,
            {("CX1", "CX2"): 0.05, ("CX1", "CONN1"): 0.5, ("CX2", "LF1"): 1e-12},
            buck_design.coupling_branches,
        )
        # CONN1 has no circuit branch; 1e-12 is below the floor.
        assert applied == 1

    def test_couplings_change_spectrum(self, buck_design):
        clean = buck_design.emission_spectrum()
        dirty = buck_design.emission_spectrum({("CX1", "CX2"): 0.05})
        assert dirty.mean_abs_error_db(clean) > 1.0

    def test_harmonic_grid_in_cispr_range(self, buck_design):
        freqs = buck_design.harmonic_frequencies()
        assert freqs[0] >= 150e3 * 0.99
        assert freqs[-1] <= 108e6

    def test_spectrum_grid_matches_harmonics(self, buck_design):
        spec = buck_design.emission_spectrum()
        assert np.allclose(spec.freqs, buck_design.harmonic_frequencies())


class TestPhysicalBehaviour:
    def test_filter_attenuates_highs(self, buck_design):
        # Without couplings the pi filters roll off: late harmonics at the
        # LISN are far below the fundamental.
        spec = buck_design.emission_spectrum()
        db = spec.dbuv()
        assert db[0] > np.median(db[len(db) // 2 :]) + 20.0

    def test_faster_edges_raise_hf_noise(self):
        slow = BuckConverterDesign(t_rise=100e-9, t_fall=100e-9)
        fast = BuckConverterDesign(t_rise=10e-9, t_fall=10e-9)
        s_slow = slow.emission_spectrum()
        s_fast = fast.emission_spectrum()
        assert s_fast.max_dbuv_in(20e6, 108e6) > s_slow.max_dbuv_in(20e6, 108e6)

    def test_more_current_more_noise(self):
        light = BuckConverterDesign(output_current=0.5)
        heavy = BuckConverterDesign(output_current=5.0)
        assert heavy.emission_spectrum().dbuv()[0] > light.emission_spectrum().dbuv()[0]
