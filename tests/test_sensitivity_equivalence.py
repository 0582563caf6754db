"""The low-rank sensitivity probes equal an explicit re-solve per probe.

The oracle is the direct method the ranking replaced: clone the circuit,
set the probed coupling to ``existing + k_probe`` and sweep it again.
"""

from itertools import combinations

import numpy as np
import pytest
from test_property_circuit import random_rlc_netlist
from test_sensitivity import FREQS, pi_filter_circuit

from repro import obs
from repro.circuit import Circuit, MnaSystem, SingularCircuitError
from repro.converters import (
    BOOST_COUPLING_BRANCHES,
    COUPLING_BRANCHES,
    BoostConverterDesign,
    BuckConverterDesign,
)
from repro.core import EmiDesignFlow
from repro.sensitivity import SensitivityAnalyzer, SensitivityEntry, relevant_pairs

#: (switching frequency [Hz], k_probe) levels of the warm-flow benchmark.
FLOW_LEVELS = ((180e3, 0.014), (230e3, 0.010), (280e3, 0.020), (330e3, 0.012), (400e3, 0.017))


def oracle_rank(analyzer: SensitivityAnalyzer, pairs) -> list[SensitivityEntry]:
    def levels(circuit: Circuit) -> np.ndarray:
        sweep = MnaSystem(circuit).ac_sweep(analyzer.freqs)
        return sweep.magnitude_db(analyzer.measurement_node, reference=1e-6)

    baseline = levels(analyzer.circuit)
    entries = []
    for a, b in pairs:
        variant = analyzer.circuit.clone()
        variant.set_coupling(a, b, variant.coupling_value(a, b) + analyzer.k_probe)
        delta = np.abs(levels(variant) - baseline)
        worst = int(np.argmax(delta))
        entries.append(SensitivityEntry(a, b, float(delta[worst]), float(analyzer.freqs[worst])))
    entries.sort(key=lambda e: e.impact_db, reverse=True)
    return entries


def assert_equivalent(analyzer: SensitivityAnalyzer, pairs, threshold_db: float = 3.0) -> None:
    got = analyzer.rank(pairs)
    want = oracle_rank(analyzer, pairs)
    by_pair = {(e.inductor_a, e.inductor_b): e for e in got}
    assert by_pair.keys() == {(e.inductor_a, e.inductor_b) for e in want}
    for w in want:
        g = by_pair[(w.inductor_a, w.inductor_b)]
        assert g.impact_db == pytest.approx(w.impact_db, abs=1e-9, rel=0)
        # Zero-impact pairs peak at rounding noise; their argmax is arbitrary.
        if w.impact_db >= 1e-6:
            assert g.worst_freq == w.worst_freq

    def above(entries):
        return [e.pair() for e in entries if e.impact_db >= threshold_db]

    assert above(got) == above(want)
    relevant = relevant_pairs(got, threshold_db)
    assert [e.pair() for e in relevant] == above(want)


@pytest.mark.parametrize("seed", range(12))
def test_random_netlists(seed):
    circuit = random_rlc_netlist(seed)
    names = [ind.name for ind in circuit.inductors()]
    freqs = np.logspace(3, 8, 15)
    analyzer = SensitivityAnalyzer(circuit, "n0", freqs, k_probe=0.3)
    assert_equivalent(analyzer, list(combinations(names, 2)), threshold_db=0.1)


def test_pi_filter():
    analyzer = SensitivityAnalyzer(pi_filter_circuit(), "b", FREQS, k_probe=0.05)
    names = [ind.name for ind in analyzer.circuit.inductors()]
    assert_equivalent(analyzer, list(combinations(names, 2)))


def test_pi_filter_existing_coupling():
    circuit = pi_filter_circuit()
    circuit.set_coupling("CA.ESL", "CB.ESL", -0.3)
    analyzer = SensitivityAnalyzer(circuit, "b", FREQS, k_probe=0.05)
    names = [ind.name for ind in circuit.inductors()]
    assert_equivalent(analyzer, list(combinations(names, 2)))


@pytest.mark.parametrize("fsw,k_probe", FLOW_LEVELS)
def test_buck_design(fsw, k_probe):
    flow = EmiDesignFlow(BuckConverterDesign(switching_frequency=fsw), k_threshold=k_probe)
    circuit, meas = flow.design.emi_circuit()
    analyzer = SensitivityAnalyzer(circuit, meas, flow.sensitivity_frequencies(), k_probe)
    assert_equivalent(analyzer, list(combinations(sorted(COUPLING_BRANCHES), 2)))


def test_boost_design():
    design = BoostConverterDesign()
    circuit, meas = design.emi_circuit()
    freqs = design.harmonic_frequencies()[::10]
    analyzer = SensitivityAnalyzer(circuit, meas, freqs, k_probe=0.02)
    assert_equivalent(analyzer, list(combinations(sorted(BOOST_COUPLING_BRANCHES), 2)))


def test_one_sweep_serves_every_probe():
    analyzer = SensitivityAnalyzer(pi_filter_circuit(), "b", FREQS, k_probe=0.05)
    tracer = obs.enable()
    try:
        ranking = analyzer.rank()
    finally:
        obs.disable()
    totals = tracer.report().totals()
    assert totals["sensitivity.probes"] == len(ranking) == 6
    assert totals["circuit.mna_factorizations"] == len(FREQS)


def parallel_inductors(k: float) -> Circuit:
    """Two 1 uH inductors in parallel from ``a`` to ground, coupled by ``k``."""
    c = Circuit("parallel inductors")
    c.add_vsource("V1", "src", "0", ac=1.0)
    c.add_resistor("RS", "src", "a", 50.0)
    c.add_inductor("L1", "a", "0", 1e-6)
    c.add_inductor("L2", "a", "0", 1e-6)
    c.add_coupling("K1", "L1", "L2", k)
    return c


class TestProbeChecks:
    """The probed variant is checked as the explicit re-solve would check it."""

    FREQS = np.array([1e5, 1e6, 1e7])

    def test_singular_probe_raises(self):
        # k 0.99 + 0.01 makes the parallel pair perfectly coupled.
        analyzer = SensitivityAnalyzer(parallel_inductors(0.99), "a", self.FREQS, k_probe=0.01)
        with pytest.raises(SingularCircuitError, match="100000 Hz"):
            oracle_rank(analyzer, [("L1", "L2")])
        with pytest.raises(SingularCircuitError, match=r"100000 Hz.*'L1'.*'L2'"):
            analyzer.rank([("L1", "L2")])
        with pytest.raises(SingularCircuitError, match=r"100000 Hz.*'L1'.*'L2'"):
            analyzer.probe_pair("L1", "L2")

    def test_k_above_one_rejected(self):
        analyzer = SensitivityAnalyzer(parallel_inductors(0.995), "a", self.FREQS, k_probe=0.01)
        with pytest.raises(ValueError, match=r"\|k\| must be <= 1"):
            oracle_rank(analyzer, [("L1", "L2")])
        with pytest.raises(ValueError, match=r"\|k\| must be <= 1"):
            analyzer.rank([("L1", "L2")])
        with pytest.raises(ValueError, match=r"\|k\| must be <= 1"):
            analyzer.probe_pair("L2", "L1")

    def test_unknown_inductor_rejected(self):
        analyzer = SensitivityAnalyzer(parallel_inductors(0.5), "a", self.FREQS)
        with pytest.raises(KeyError):
            oracle_rank(analyzer, [("L1", "L9")])
        with pytest.raises(KeyError, match="L9"):
            analyzer.rank([("L1", "L9")])
        with pytest.raises(KeyError, match="L9"):
            analyzer.probe_pair("L9", "L1")

    def test_self_coupling_rejected(self):
        analyzer = SensitivityAnalyzer(parallel_inductors(0.5), "a", self.FREQS)
        with pytest.raises(ValueError, match="itself"):
            oracle_rank(analyzer, [("L1", "L1")])
        with pytest.raises(ValueError, match="itself"):
            analyzer.probe_pair("L1", "L1")
