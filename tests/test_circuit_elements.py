"""Unit tests for circuit element primitives."""

import pytest

from repro.circuit import (
    Capacitor,
    CurrentSource,
    IdealDiode,
    Inductor,
    MutualCoupling,
    Resistor,
    Switch,
    VoltageSource,
)


class TestValidation:
    def test_same_node_rejected(self):
        with pytest.raises(ValueError):
            Resistor("R1", "a", "a", 1.0)

    def test_empty_name_rejected(self):
        with pytest.raises(ValueError):
            Resistor("", "a", "b", 1.0)

    def test_nonpositive_values_rejected(self):
        with pytest.raises(ValueError):
            Resistor("R1", "a", "b", 0.0)
        with pytest.raises(ValueError):
            Capacitor("C1", "a", "b", -1e-9)
        with pytest.raises(ValueError):
            Inductor("L1", "a", "b", 0.0)

    def test_coupling_bounds(self):
        with pytest.raises(ValueError):
            MutualCoupling("K1", "L1", "L2", 1.5)
        with pytest.raises(ValueError):
            MutualCoupling("K1", "L1", "L1", 0.5)

    def test_coupling_negative_k_allowed(self):
        k = MutualCoupling("K1", "L1", "L2", -0.3)
        assert k.k == -0.3

    def test_diode_ac_state(self):
        with pytest.raises(ValueError):
            IdealDiode("D1", "a", "b", ac_state="maybe")


class TestSources:
    def test_vsource_defaults(self):
        v = VoltageSource("V1", "a", "0")
        assert v.value_at_time(0.0) == 0.0
        assert v.phasors(1e6) == 0.0

    def test_vsource_waveform(self):
        v = VoltageSource("V1", "a", "0", dc=5.0, waveform=lambda t: 3.0 * t)
        assert v.value_at_time(2.0) == pytest.approx(6.0)

    def test_vsource_dc_fallback(self):
        v = VoltageSource("V1", "a", "0", dc=5.0)
        assert v.value_at_time(123.0) == 5.0

    def test_vsource_spectrum_overrides_ac(self):
        v = VoltageSource("V1", "a", "0", ac=1.0, spectrum=lambda f: 2.0 + 0j)
        assert v.phasors(1e6) == 2.0 + 0j

    def test_isource_symmetry(self):
        i = CurrentSource("I1", "a", "0", dc=0.1, ac=0.5j)
        assert i.value_at_time(0.0) == pytest.approx(0.1)
        assert i.phasors(1.0) == 0.5j


class TestSwitchAndDiode:
    def test_switch_control(self):
        s = Switch("S1", "a", "b", r_on=0.01, r_off=1e6, control=lambda t: t < 1.0)
        assert s.resistance_at(0.5) == 0.01
        assert s.resistance_at(1.5) == 1e6

    def test_switch_ac_state(self):
        s = Switch("S1", "a", "b", ac_closed=False)
        assert s.ac_resistance() == s.r_off

    def test_nodes(self):
        d = IdealDiode("D1", "anode", "cathode")
        assert d.nodes() == ("anode", "cathode")
