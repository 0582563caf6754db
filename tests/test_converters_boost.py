"""Unit tests for the boost-converter demonstrator."""

import numpy as np
import pytest
from test_converters_buck import BAD_PARAMETERS

from repro.circuit import MnaSystem
from repro.converters import (
    BOOST_COUPLING_BRANCHES,
    BoostConverterDesign,
    BuckConverterDesign,
    layout_couplings,
)
from repro.placement import AutoPlacer, BaselinePlacer


@pytest.fixture(scope="module")
def boost() -> BoostConverterDesign:
    return BoostConverterDesign()


class TestParameters:
    def test_duty_and_input_current(self, boost):
        assert boost.duty == pytest.approx(0.5)
        assert boost.input_current == pytest.approx(2.0)

    def test_invalid_voltages(self):
        with pytest.raises(ValueError):
            BoostConverterDesign(input_voltage=24.0, output_voltage=12.0)

    @pytest.mark.parametrize("current", [0.0, -1.0])
    def test_non_positive_output_current(self, current):
        # RLOAD = Vout / Iout is stamped by emi_circuit().
        with pytest.raises(ValueError, match="output current"):
            BoostConverterDesign(output_current=current)

    @pytest.mark.parametrize("params, message", BAD_PARAMETERS)
    def test_unbuildable_parameters_rejected_at_construction(self, params, message):
        with pytest.raises(ValueError, match=message):
            BoostConverterDesign(**params)

    def test_parts_cached(self, boost):
        assert boost.parts() is boost.parts()


class TestCircuit:
    def test_all_coupling_branches_exist(self, boost):
        circuit, _ = boost.emi_circuit()
        inductors = {e.name for e in circuit.inductors()}
        for branch in BOOST_COUPLING_BRANCHES:
            assert branch in inductors

    def test_solvable(self, boost):
        circuit, meas = boost.emi_circuit()
        assert np.isfinite(abs(MnaSystem(circuit).solve_ac(5e6).voltage(meas)))

    def test_couplings_change_spectrum(self, boost):
        clean = boost.emission_spectrum()
        dirty = boost.emission_spectrum({("CX1", "L1"): 0.05})
        assert dirty.mean_abs_error_db(clean) > 1.0


class TestTopologyPhysics:
    def test_continuous_input_current_quieter_than_buck(self, boost):
        """The defining boost property: the inductor at the input keeps the
        drawn current continuous, so the LISN sees far less DM noise than
        the buck's chopped input above the fundamental."""
        buck = BuckConverterDesign()
        s_boost = boost.emission_spectrum()
        s_buck = buck.emission_spectrum()
        assert s_boost.max_dbuv_in(5e6, 30e6) < s_buck.max_dbuv_in(5e6, 30e6) - 15.0
        assert s_boost.max_dbuv_in(30e6, 108e6) < s_buck.max_dbuv_in(30e6, 108e6) - 6.0

    def test_bigger_inductor_less_ripple_noise(self):
        small = BoostConverterDesign()
        small.parts()["L1"].rated_inductance = 22e-6
        large = BoostConverterDesign()
        large.parts()["L1"].rated_inductance = 150e-6
        h1_small = small.emission_spectrum().dbuv()[0]
        h1_large = large.emission_spectrum().dbuv()[0]
        assert h1_large < h1_small - 6.0


class TestPlacementIntegration:
    def test_placement_problem_complete(self, boost):
        problem = boost.placement_problem()
        assert len(problem.components) == 11
        assert len(problem.groups) == 3
        report = AutoPlacer(problem).run()
        assert report.placed_count == 11

    def test_layout_couplings_feed_model(self, boost):
        problem = boost.placement_problem()
        BaselinePlacer(problem).run()
        ks = layout_couplings(
            problem, refdes_of_interest=list(BOOST_COUPLING_BRANCHES.values())
        )
        assert ks
        clean = boost.emission_spectrum()
        coupled = boost.emission_spectrum(ks)
        # Bad placement degrades the boost too — the flow generalises.
        assert coupled.max_dbuv_in(5e6, 108e6) > clean.max_dbuv_in(5e6, 108e6) + 6.0
