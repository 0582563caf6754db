"""Unit tests for the Circuit container and component-level builders."""

import pytest

from repro.circuit import Circuit, Inductor


class TestBasicAdds:
    def test_duplicate_names_rejected(self):
        c = Circuit()
        c.add_resistor("R1", "a", "b", 1.0)
        with pytest.raises(ValueError):
            c.add_resistor("R1", "b", "c", 2.0)

    def test_node_names_exclude_ground(self):
        c = Circuit()
        c.add_resistor("R1", "in", "0", 1.0)
        c.add_resistor("R2", "in", "out", 1.0)
        assert c.node_names() == ["in", "out"]

    def test_find(self):
        c = Circuit()
        c.add_capacitor("C1", "a", "0", 1e-9)
        assert c.find("C1").capacitance == 1e-9
        with pytest.raises(KeyError):
            c.find("C2")

    def test_stats(self):
        c = Circuit()
        c.add_resistor("R1", "a", "0", 1.0)
        c.add_inductor("L1", "a", "b", 1e-6)
        c.add_inductor("L2", "b", "0", 1e-6)
        c.add_coupling("K1", "L1", "L2", 0.1)
        stats = c.stats()
        assert stats["Resistor"] == 1
        assert stats["Inductor"] == 2
        assert stats["MutualCoupling"] == 1


class TestCouplings:
    def circuit(self) -> Circuit:
        c = Circuit()
        c.add_inductor("L1", "a", "0", 1e-6)
        c.add_inductor("L2", "b", "0", 1e-6)
        return c

    def test_coupling_requires_existing_inductors(self):
        c = self.circuit()
        with pytest.raises(KeyError):
            c.add_coupling("K1", "L1", "L9", 0.1)

    def test_set_coupling_creates_then_updates(self):
        c = self.circuit()
        c.set_coupling("L1", "L2", 0.1)
        assert c.coupling_value("L1", "L2") == 0.1
        c.set_coupling("L2", "L1", 0.2)  # order-insensitive update
        assert c.coupling_value("L1", "L2") == 0.2
        assert len(c.couplings) == 1

    def test_set_coupling_rejects_k_above_one(self):
        c = self.circuit()
        with pytest.raises(ValueError, match=r"\|k\| must be <= 1"):
            c.set_coupling("L1", "L2", 1.7)  # create
        c.set_coupling("L1", "L2", 0.5)
        with pytest.raises(ValueError, match=r"\|k\| must be <= 1"):
            c.set_coupling("L1", "L2", 1.7)  # update
        with pytest.raises(ValueError, match=r"\|k\| must be <= 1"):
            c.set_coupling("L2", "L1", -1.2)
        assert c.coupling_value("L1", "L2") == 0.5

    def test_remove_coupling(self):
        c = self.circuit()
        c.set_coupling("L1", "L2", 0.1)
        assert c.remove_coupling("L2", "L1")
        assert not c.remove_coupling("L1", "L2")
        assert c.coupling_value("L1", "L2") == 0.0

    def test_duplicate_coupling_name_rejected(self):
        c = self.circuit()
        c.add_coupling("K1", "L1", "L2", 0.1)
        with pytest.raises(ValueError):
            c.add_coupling("K1", "L2", "L1", 0.2)


class TestRealComponentBuilders:
    def test_real_capacitor_full_expansion(self):
        c = Circuit()
        esl = c.add_real_capacitor("CX", "in", "0", 1e-6, esr=0.01, esl=10e-9)
        assert isinstance(esl, Inductor)
        assert esl.name == "CX.ESL"
        names = {e.name for e in c.elements}
        assert names == {"CX.C", "CX.ESR", "CX.ESL"}

    def test_real_capacitor_ideal(self):
        c = Circuit()
        assert c.add_real_capacitor("CX", "in", "0", 1e-6) is None
        assert len(c.elements) == 1

    def test_real_capacitor_negative_parasitics(self):
        c = Circuit()
        with pytest.raises(ValueError):
            c.add_real_capacitor("CX", "in", "0", 1e-6, esr=-1.0)

    def test_real_inductor_with_epc(self):
        c = Circuit()
        main = c.add_real_inductor("LF", "a", "b", 10e-6, esr=0.05, epc=5e-12)
        assert main.name == "LF.L"
        names = {e.name for e in c.elements}
        assert names == {"LF.L", "LF.ESR", "LF.EPC"}

    def test_trace(self):
        c = Circuit()
        ind = c.add_trace("T1", "a", "b", 20e-9, resistance=2e-3)
        assert ind.inductance == 20e-9
        assert {e.name for e in c.elements} == {"T1.L", "T1.R"}

    def test_clone_independent(self):
        c = Circuit()
        c.add_inductor("L1", "a", "0", 1e-6)
        c.add_inductor("L2", "b", "0", 1e-6)
        c.set_coupling("L1", "L2", 0.1)
        d = c.clone()
        d.set_coupling("L1", "L2", 0.5)
        assert c.coupling_value("L1", "L2") == 0.1
