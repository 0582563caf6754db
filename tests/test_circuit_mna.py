"""Unit tests for the AC MNA solver — validated against closed forms."""

import math

import numpy as np
import pytest

from repro.circuit import Circuit, MnaSystem


def rc_lowpass() -> Circuit:
    c = Circuit()
    c.add_vsource("V1", "in", "0", ac=1.0)
    c.add_resistor("R1", "in", "out", 1e3)
    c.add_capacitor("C1", "out", "0", 1e-6)
    return c


class TestElementaryNetworks:
    def test_resistive_divider(self):
        c = Circuit()
        c.add_vsource("V1", "in", "0", ac=1.0)
        c.add_resistor("R1", "in", "mid", 1e3)
        c.add_resistor("R2", "mid", "0", 1e3)
        sol = MnaSystem(c).solve_ac(1e3)
        assert abs(sol.voltage("mid")) == pytest.approx(0.5)

    def test_rc_corner_frequency(self):
        f_c = 1.0 / (2 * math.pi * 1e3 * 1e-6)
        sol = MnaSystem(rc_lowpass()).solve_ac(f_c)
        assert abs(sol.voltage("out")) == pytest.approx(1 / math.sqrt(2), rel=1e-3)

    def test_rc_phase(self):
        f_c = 1.0 / (2 * math.pi * 1e3 * 1e-6)
        sol = MnaSystem(rc_lowpass()).solve_ac(f_c)
        assert math.degrees(np.angle(sol.voltage("out"))) == pytest.approx(-45.0, abs=0.1)

    def test_rl_highpass(self):
        c = Circuit()
        c.add_vsource("V1", "in", "0", ac=1.0)
        c.add_resistor("R1", "in", "out", 100.0)
        c.add_inductor("L1", "out", "0", 1e-3)
        f_c = 100.0 / (2 * math.pi * 1e-3)
        sol = MnaSystem(c).solve_ac(f_c)
        assert abs(sol.voltage("out")) == pytest.approx(1 / math.sqrt(2), rel=1e-3)

    def test_series_rlc_resonance_current(self):
        c = Circuit()
        c.add_vsource("V1", "a", "0", ac=1.0)
        c.add_resistor("R1", "a", "b", 2.0)
        c.add_inductor("L1", "b", "c", 10e-6)
        c.add_capacitor("C1", "c", "0", 100e-9)
        f0 = 1.0 / (2 * math.pi * math.sqrt(10e-6 * 100e-9))
        sol = MnaSystem(c).solve_ac(f0)
        assert abs(sol.inductor_currents["L1"]) == pytest.approx(0.5, rel=1e-6)

    def test_current_source_into_resistor(self):
        c = Circuit()
        c.add_isource("I1", "0", "n", ac=2.0)
        c.add_resistor("R1", "n", "0", 50.0)
        sol = MnaSystem(c).solve_ac(1e3)
        assert abs(sol.voltage("n")) == pytest.approx(100.0)

    def test_ground_aliases(self):
        c = Circuit()
        c.add_vsource("V1", "in", "GND", ac=1.0)
        c.add_resistor("R1", "in", "0", 10.0)
        sol = MnaSystem(c).solve_ac(1.0)
        assert sol.voltage("GND") == 0.0
        assert abs(sol.source_currents["V1"]) == pytest.approx(0.1)


class TestMutualCoupling:
    def build_transformer(self, k: float) -> Circuit:
        c = Circuit()
        c.add_vsource("V1", "p", "0", ac=1.0)
        c.add_inductor("L1", "p", "0", 100e-6)
        c.add_inductor("L2", "s", "0", 100e-6)
        c.add_resistor("RL", "s", "0", 1e9)
        c.add_coupling("K1", "L1", "L2", k)
        return c

    def test_open_secondary_voltage_is_k(self):
        sol = MnaSystem(self.build_transformer(0.5)).solve_ac(1e5)
        assert abs(sol.voltage("s")) == pytest.approx(0.5, rel=1e-4)

    def test_negative_k_inverts_phase(self):
        pos = MnaSystem(self.build_transformer(0.5)).solve_ac(1e5).voltage("s")
        neg = MnaSystem(self.build_transformer(-0.5)).solve_ac(1e5).voltage("s")
        assert pos.real == pytest.approx(-neg.real, rel=1e-6)

    def test_turns_ratio(self):
        c = Circuit()
        c.add_vsource("V1", "p", "0", ac=1.0)
        c.add_inductor("L1", "p", "0", 100e-6)
        c.add_inductor("L2", "s", "0", 400e-6)  # n = 2
        c.add_resistor("RL", "s", "0", 1e9)
        c.add_coupling("K1", "L1", "L2", 1.0 - 1e-9)
        sol = MnaSystem(c).solve_ac(1e5)
        assert abs(sol.voltage("s")) == pytest.approx(2.0, rel=1e-3)

    def test_inductance_matrix_symmetric(self):
        mna = MnaSystem(self.build_transformer(0.3))
        lmat = mna.inductance_matrix()
        assert np.allclose(lmat, lmat.T)
        assert lmat[0, 1] == pytest.approx(0.3 * 100e-6)

    def test_coupling_to_missing_inductor_raises(self):
        c = self.build_transformer(0.5)
        c.couplings[0].inductor_a = "L9"
        with pytest.raises(KeyError):
            MnaSystem(c).inductance_matrix()


class TestSweep:
    def test_sweep_shapes(self):
        freqs = np.logspace(2, 6, 31)
        sweep = MnaSystem(rc_lowpass()).ac_sweep(freqs)
        assert len(sweep) == 31
        assert sweep.voltages("out").shape == (31,)

    def test_magnitude_db_monotone_rolloff(self):
        freqs = np.logspace(3, 6, 10)
        sweep = MnaSystem(rc_lowpass()).ac_sweep(freqs)
        db = sweep.magnitude_db("out")
        assert np.all(np.diff(db) < 0.0)

    def test_magnitude_db_rejects_non_positive_reference(self):
        sweep = MnaSystem(rc_lowpass()).ac_sweep(np.logspace(3, 6, 4))
        for reference in (0.0, -1e-6, float("nan")):
            with pytest.raises(ValueError, match="reference"):
                sweep.magnitude_db("out", reference=reference)

    def test_ground_column_is_zero(self):
        sweep = MnaSystem(rc_lowpass()).ac_sweep(np.logspace(3, 6, 4))
        assert np.array_equal(sweep.voltages("0"), np.zeros(4, dtype=complex))

    def test_voltage_across(self):
        c = Circuit()
        c.add_vsource("V1", "in", "0", ac=1.0)
        c.add_resistor("R1", "in", "mid", 1.0)
        c.add_resistor("R2", "mid", "0", 1.0)
        sol = MnaSystem(c).solve_ac(1.0)
        assert abs(sol.voltage_across("in", "mid")) == pytest.approx(0.5)


class TestSpectrumSources:
    def test_spectrum_callable_drives_rhs(self):
        c = Circuit()
        c.add_vsource("V1", "in", "0", spectrum=lambda f: np.where(f == 1e6, 2.0, 0.0))
        c.add_resistor("R1", "in", "0", 1.0)
        mna = MnaSystem(c)
        assert abs(mna.solve_ac(1e6).voltage("in")) == pytest.approx(2.0)
        assert abs(mna.solve_ac(2e6).voltage("in")) == pytest.approx(0.0)


class TestDiagnostics:
    def test_floating_node_detected(self):
        from repro.circuit import SingularCircuitError

        c = Circuit()
        c.add_vsource("V1", "in", "0", ac=1.0)
        c.add_resistor("R1", "in", "0", 10.0)
        # An island: two nodes connected to each other but not to ground.
        c.add_resistor("R2", "islandA", "islandB", 1.0)
        mna = MnaSystem(c)
        assert set(c.floating_nodes()) == {"islandA", "islandB"}
        with pytest.raises(SingularCircuitError, match="islandA"):
            mna.solve_ac(1e3)
        with pytest.raises(SingularCircuitError, match=r"at 2e\+06 Hz;.*islandA"):
            mna.ac_sweep(np.array([2e6, 3e6]))

    def test_capacitor_only_node_floats(self):
        c = Circuit()
        c.add_vsource("V1", "in", "0", ac=1.0)
        c.add_resistor("R1", "in", "0", 10.0)
        c.add_capacitor("C1", "in", "hang", 1e-9)
        # The node hangs at DC (capacitor-only attachment).
        assert c.floating_nodes() == ["hang"]

    def test_healthy_circuit_no_floating_nodes(self):
        c = Circuit()
        c.add_vsource("V1", "in", "0", ac=1.0)
        c.add_resistor("R1", "in", "out", 10.0)
        c.add_inductor("L1", "out", "0", 1e-6)
        assert c.floating_nodes() == []
