"""Unit tests for the two-line (CM/DM) conducted-emission model."""

import numpy as np
import pytest

from repro.circuit import MnaSystem
from repro.converters import (
    DEFAULT_HEATSINK_CAPACITANCE,
    build_cmdm_circuit,
    cmdm_spectra,
)
from repro.emi import separate_modes


class TestCircuitConstruction:
    def test_two_lisns_present(self, buck_design):
        circuit, meas_p, meas_n = build_cmdm_circuit(buck_design)
        names = {e.name for e in circuit.elements}
        assert "LISN_P.L" in names and "LISN_N.L" in names
        assert meas_p != meas_n

    def test_heatsink_cap_optional(self, buck_design):
        circuit, _, _ = build_cmdm_circuit(buck_design, heatsink_capacitance=0.0)
        assert not any(e.name == "CHS" for e in circuit.elements)

    def test_negative_capacitance_rejected(self, buck_design):
        with pytest.raises(ValueError):
            build_cmdm_circuit(buck_design, heatsink_capacitance=-1e-12)

    def test_solvable_across_band(self, buck_design):
        circuit, meas_p, meas_n = build_cmdm_circuit(buck_design)
        mna = MnaSystem(circuit)
        for f in (150e3, 5e6, 100e6):
            sol = mna.solve_ac(f)
            assert np.isfinite(abs(sol.voltage(meas_p)))
            assert np.isfinite(abs(sol.voltage(meas_n)))

    def test_power_path_is_the_single_line_models(self, buck_design):
        # Same parts, nodes, values and order as the single-line model,
        # with its return "0" moved to the power ground "pgnd".
        def power_path(circuit, ret):
            front = ("VSUP", "RBOND", "LISN", "CHS")
            return [
                (type(e).__name__, e.name, e.n1, "ret" if e.n2 == ret else e.n2,
                 getattr(e, "capacitance", None), getattr(e, "inductance", None),
                 getattr(e, "resistance", None))
                for e in circuit.elements
                if not e.name.startswith(front)
            ]

        single, _ = buck_design.emi_circuit()
        two_line, _, _ = build_cmdm_circuit(buck_design)
        assert power_path(two_line, "pgnd") == power_path(single, "0")
        assert len(power_path(single, "0")) > 30

    def test_magnetic_couplings_apply(self, buck_design):
        circuit, _, _ = build_cmdm_circuit(
            buck_design, couplings={("CX1", "CX2"): 0.05}
        )
        assert circuit.coupling_value("CX1.ESL", "CX2.ESL") == pytest.approx(0.05)


class TestModePhysics:
    def test_no_heatsink_no_common_mode(self, buck_design):
        sp, sn = cmdm_spectra(buck_design, heatsink_capacitance=0.0)
        split = separate_modes(sp, sn)
        # With the CM path removed the noise is (almost) purely DM.
        assert split.cm_fraction() < 0.05

    def test_heatsink_creates_common_mode(self, buck_design):
        sp, sn = cmdm_spectra(buck_design)
        split = separate_modes(sp, sn)
        # This design has no Y-caps and no CM choke: once the heatsink
        # path exists, CM dominates — the canonical reason CM filtering
        # exists at all.
        assert split.cm_fraction() > 0.5

    def test_more_heatsink_capacitance_more_cm(self, buck_design):
        def cm_level(chs: float) -> float:
            sp, sn = cmdm_spectra(buck_design, heatsink_capacitance=chs)
            split = separate_modes(sp, sn)
            return float(np.max(split.common_mode.dbuv()))

        assert cm_level(100e-12) > cm_level(10e-12)

    def test_cm_reacts_far_more_than_dm(self, buck_design):
        def split(chs: float):
            sp, sn = cmdm_spectra(buck_design, heatsink_capacitance=chs)
            return separate_modes(sp, sn)

        with_chs = split(DEFAULT_HEATSINK_CAPACITANCE)
        without = split(0.0)
        cm_jump = float(
            np.max(with_chs.common_mode.dbuv()) - np.max(without.common_mode.dbuv())
        )
        dm_jump = abs(
            float(
                np.max(with_chs.differential_mode.dbuv())
                - np.max(without.differential_mode.dbuv())
            )
        )
        # The heatsink path is a CM mechanism; it reaches the DM reading
        # only through line-impedance asymmetry (mode conversion), so the
        # CM level must move far more than the DM level.
        assert cm_jump > dm_jump + 20.0

    def test_line_spectra_on_harmonic_grid(self, buck_design):
        sp, sn = cmdm_spectra(buck_design, f_max=30e6)
        assert np.allclose(sp.freqs, sn.freqs)
        assert sp.freqs[-1] <= 30e6
