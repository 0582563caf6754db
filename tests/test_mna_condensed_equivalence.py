"""The condensed MNA solver equals the full-node assembly it replaced.

``MnaSystem`` folds every series R/L/C chain through internal nodes into
one branch row.  The oracle (``tests/mna_oracle.py``) is the former
full-node assembly with one solve per point.  Bounds:

* converter spectra: <= 1e-7 relative and <= 1e-6 dB on resolved lines
  (both levels above ``LINE_FLOOR_DBUV``), against the oracle refined in
  extended precision where the host has it;
* every node voltage and swept branch response of seeded random
  netlists: <= 1e-7 relative to the largest magnitude of its sweep;
* sensitivity impacts: within 1e-8 dB.
"""

import math
from itertools import combinations

import numpy as np
import pytest
from mna_oracle import EXTENDED_PRECISION, FullMnaSystem
from test_property_circuit import random_rlc_netlist
from test_sensitivity import FREQS, pi_filter_circuit
from test_sensitivity_equivalence import FLOW_LEVELS

from repro.circuit import Circuit, MnaSystem, SingularCircuitError
from repro.converters import (
    BOOST_COUPLING_BRANCHES,
    COUPLING_BRANCHES,
    BoostConverterDesign,
    BuckConverterDesign,
    build_cmdm_circuit,
    perturb_circuit,
)
from repro.core import EmiDesignFlow
from repro.emi import Spectrum
from repro.sensitivity import SensitivityAnalyzer

RTOL = 1e-7
DB_TOL = 1e-6
IMPACT_TOL_DB = 1e-8


def random_chain_netlist(seed: int) -> Circuit:
    """A seeded random netlist rich in series chains.

    Part models (C–ESR–ESL, L–ESR with EPC), RC snubbers, a two-inductor
    series run, a chain with both ends on ground, a switch and a diode on
    random nodes, random couplings and both source kinds.
    """
    rng = np.random.default_rng(seed)

    def log_uniform(lo: float, hi: float) -> float:
        return float(10.0 ** rng.uniform(lo, hi))

    nodes = [f"n{i}" for i in range(int(rng.integers(3, 6)))]

    def pick() -> str:
        return nodes[int(rng.integers(len(nodes)))]

    c = Circuit(f"chains {seed}")
    c.add_vsource("V1", "vs", "0", ac=complex(rng.uniform(0.5, 2.0), rng.uniform(-1, 1)))
    c.add_resistor("RS", "vs", nodes[0], log_uniform(-1, 2))
    for i, node in enumerate(nodes):
        c.add_resistor(f"RG{i}", node, "0", log_uniform(1, 4))
    for i in range(int(rng.integers(1, 4))):
        esr, esl = log_uniform(-3, -1), log_uniform(-9, -8)
        c.add_real_capacitor(f"C{i}", pick(), "0", log_uniform(-9, -6), esr=esr, esl=esl)
    for i in range(int(rng.integers(1, 3))):
        a, b = rng.choice(len(nodes), size=2, replace=False)
        c.add_real_inductor(
            f"LF{i}", nodes[a], nodes[b], log_uniform(-6, -4), esr=log_uniform(-2, 0), epc=5e-12
        )
    c.add_resistor("RSN", pick(), "snub", log_uniform(0, 2))
    c.add_capacitor("CSN", "snub", "0", log_uniform(-10, -8))
    # Two inductors in series through one node: cut into two chains.
    c.add_inductor("LA", pick(), "mid", log_uniform(-8, -6))
    c.add_inductor("LB", "mid", "0", log_uniform(-8, -6))
    # Both ends of a chain on ground: 0 -- RL -- s -- LS -- 0, driven by coupling.
    c.add_resistor("RL", "0", "s", log_uniform(0, 3))
    c.add_inductor("LS", "s", "0", log_uniform(-8, -6))
    c.add_switch("SW", pick(), "0", r_on=log_uniform(-2, 0), ac_closed=bool(rng.integers(2)))
    c.add_diode("D1", pick(), "0", ac_state="on" if rng.integers(2) else "off")
    ac_i = complex(rng.uniform(-1e-2, 1e-2), rng.uniform(-1e-2, 1e-2))
    c.add_isource("I1", "0", pick(), spectrum=lambda f: ac_i / (1.0 + 1j * f / 1e6))
    names = [ind.name for ind in c.inductors()]
    for i, j in combinations(range(len(names)), 2):
        if rng.uniform() < 0.4:
            c.add_coupling(f"K{i}_{j}", names[i], names[j], float(rng.uniform(-0.4, 0.4)))
    c.set_coupling("LS", names[0], 0.3)
    return c


def assert_close_per_point(got: np.ndarray, want: np.ndarray, what: str) -> None:
    """``(F, N)`` columns agree within RTOL of the largest entry at each point."""
    scale = np.abs(want).max(axis=1, keepdims=True)
    excess = np.abs(got - want) - RTOL * scale
    assert excess.max() <= 0.0, what


def assert_sweeps_match(circuit: Circuit, freqs: np.ndarray) -> None:
    """Every node voltage and inductor current, of ``x`` and of each branch
    response, agree with the oracle's."""
    names = [ind.name for ind in circuit.inductors()]
    new = MnaSystem(circuit).ac_sweep(freqs, inductors=names)
    old = FullMnaSystem(circuit).ac_sweep(freqs, inductors=names)
    nodes = circuit.node_names()
    for column in [None, *names]:
        label = "x" if column is None else f"response of {column}"
        got_x = new.x if column is None else new.branch_response(column)
        want_x = old.x if column is None else old.branch_response(column)
        assert_close_per_point(
            np.stack([new.read_voltage(n, got_x) for n in nodes], axis=1),
            np.stack([old.read_voltage(n, want_x) for n in nodes], axis=1),
            f"node voltages, {label}",
        )
        assert_close_per_point(
            got_x[:, [new.branch_rows[n] for n in names]],
            want_x[:, [old.branch_rows[n] for n in names]],
            f"inductor currents, {label}",
        )


@pytest.mark.parametrize("seed", range(12))
def test_random_rlc_netlists(seed):
    assert_sweeps_match(random_rlc_netlist(seed), np.logspace(3, 8, 23))


@pytest.mark.parametrize("seed", range(12))
def test_random_chain_netlists(seed):
    circuit = random_chain_netlist(seed)
    mna = MnaSystem(circuit)
    assert mna.size < FullMnaSystem(circuit).size
    assert_sweeps_match(circuit, np.logspace(4, 8, 150))


def assert_spectra_match(circuit: Circuit, meas: str, freqs: np.ndarray) -> None:
    # Most of the difference between the two solves is the full-node
    # solve's own rounding (up to 8.3e-8 relative on the buck[2] lines
    # near 94 MHz, where the condensed solve is within 1.1e-8 of the
    # exact answer), so the oracle is refined where the host can.
    got = Spectrum(freqs, MnaSystem(circuit).ac_sweep(freqs).voltages(meas))
    oracle = FullMnaSystem(circuit, refine=EXTENDED_PRECISION)
    want = Spectrum(freqs, oracle.ac_sweep(freqs).voltages(meas))
    lines = got.resolved_lines(want)
    assert lines.sum() >= len(freqs) // 2
    rel = np.abs(got.values - want.values) / np.abs(want.values)
    assert rel[lines].max() <= RTOL
    assert np.abs(got.dbuv() - want.dbuv())[lines].max() <= DB_TOL


BUCK_CASES = [
    ({}, {("LF1", "L1"): 0.08, ("CX2", "Q1"): -0.05}),
    (
        {"switching_frequency": 400e3, "t_rise": 12e-9, "t_fall": 25e-9},
        {("CX1", "LF1"): 0.12, ("CIN", "Q1"): 0.3, ("L1", "COUT"): -0.02},
    ),
    (
        {"switching_frequency": 150e3, "output_current": 1.2, "t_rise": 45e-9},
        {("LF1", "Q1"): -0.2, ("CX2", "L1"): 0.04},
    ),
]


@pytest.mark.parametrize("kwargs,couplings", BUCK_CASES)
def test_buck_emission_and_measurement(kwargs, couplings):
    design = BuckConverterDesign(**kwargs)
    circuit, meas = design.emi_circuit(couplings)
    freqs = design.harmonic_frequencies()
    assert_spectra_match(circuit, meas, freqs)
    variant = perturb_circuit(circuit, np.random.default_rng(2008))
    assert_spectra_match(variant, meas, freqs)


def test_boost_emission():
    design = BoostConverterDesign()
    circuit, meas = design.emi_circuit({("LF1", "L1"): 0.06, ("COUT", "CO2"): 0.2})
    assert_spectra_match(circuit, meas, design.harmonic_frequencies())


def test_cmdm_spectra():
    design = BuckConverterDesign()
    circuit, meas_p, meas_n = build_cmdm_circuit(design, couplings={("LF1", "L1"): 0.08})
    freqs = design.harmonic_frequencies()
    assert_spectra_match(circuit, meas_p, freqs)
    assert_spectra_match(circuit, meas_n, freqs)


def test_buck_condenses_to_21_unknowns():
    circuit, _ = BuckConverterDesign().emi_circuit()
    mna = MnaSystem(circuit)
    assert FullMnaSystem(circuit).size == 36
    assert len(mna.nodes) == 8
    assert mna.size == 21  # 8 nodes, 11 chain rows, 2 sources


def assert_impacts_match(
    monkeypatch, analyzer: SensitivityAnalyzer, pairs, refine: bool = False
) -> None:
    got = {e.pair(): e.impact_db for e in analyzer.rank(pairs)}
    with monkeypatch.context() as patch:
        patch.setattr(
            "repro.sensitivity.analysis.MnaSystem", lambda c: FullMnaSystem(c, refine=refine)
        )
        want = {e.pair(): e.impact_db for e in analyzer.rank(pairs)}
    assert got.keys() == want.keys()
    for pair, impact in want.items():
        assert got[pair] == pytest.approx(impact, abs=IMPACT_TOL_DB, rel=0), pair


@pytest.mark.parametrize("fsw,k_probe", FLOW_LEVELS)
def test_sensitivity_buck(monkeypatch, fsw, k_probe):
    flow = EmiDesignFlow(BuckConverterDesign(switching_frequency=fsw), k_threshold=k_probe)
    circuit, meas = flow.design.emi_circuit()
    analyzer = SensitivityAnalyzer(circuit, meas, flow.sensitivity_frequencies(), k_probe)
    assert_impacts_match(monkeypatch, analyzer, list(combinations(sorted(COUPLING_BRANCHES), 2)))


@pytest.mark.skipif(not EXTENDED_PRECISION, reason="np.longdouble is plain float64 here")
def test_sensitivity_boost(monkeypatch):
    # The boost's 30.25 MHz line is ill-conditioned: there the unrefined
    # full-node solve misses the true CX1.ESL/LHOT impact (96.1076418444
    # dB) by 1.2e-8 dB while the condensed solve is within 1.1e-10 dB.
    # So the oracle is refined in extended precision here.
    design = BoostConverterDesign()
    circuit, meas = design.emi_circuit()
    analyzer = SensitivityAnalyzer(circuit, meas, design.harmonic_frequencies()[::10], 0.02)
    pairs = list(combinations(sorted(BOOST_COUPLING_BRANCHES), 2))
    assert_impacts_match(monkeypatch, analyzer, pairs, refine=True)


def test_sensitivity_pi_filter(monkeypatch):
    analyzer = SensitivityAnalyzer(pi_filter_circuit(), "b", FREQS, k_probe=0.05)
    assert_impacts_match(monkeypatch, analyzer, None)


@pytest.mark.parametrize("seed", range(6))
def test_sensitivity_random_chains(monkeypatch, seed):
    circuit = random_chain_netlist(seed)
    # "snub" is an internal node of the RC snubber chain.
    analyzer = SensitivityAnalyzer(circuit, "snub", np.logspace(4, 8, 15), k_probe=0.2)
    assert "snub" not in MnaSystem(circuit).nodes
    assert_impacts_match(monkeypatch, analyzer, None)


class TestChains:
    def test_chain_with_both_ends_on_ground(self):
        c = Circuit()
        c.add_vsource("V1", "p", "0", ac=1.0)
        c.add_inductor("L1", "p", "0", 100e-6)
        c.add_resistor("RL", "0", "s", 50.0)
        c.add_inductor("L2", "s", "0", 400e-6)
        c.add_coupling("K1", "L1", "L2", 0.5)
        mna = MnaSystem(c)
        assert mna.nodes == ["p"]
        assert_sweeps_match(c, np.logspace(3, 7, 9))

    def test_two_inductor_run_is_cut(self):
        c = Circuit()
        c.add_vsource("V1", "p", "0", ac=1.0)
        c.add_resistor("R1", "p", "a", 5.0)
        c.add_inductor("L1", "a", "b", 1e-6)
        c.add_resistor("R2", "b", "c", 1.0)
        c.add_inductor("L2", "c", "0", 2e-6)
        c.add_coupling("K1", "L1", "L2", -0.4)
        mna = MnaSystem(c)
        # The node before the second inductor stays an unknown.
        assert mna.nodes == ["p", "c"]
        assert_sweeps_match(c, np.logspace(3, 8, 11))

    def test_reversed_inductor_current_keeps_its_sign(self):
        c = Circuit()
        c.add_vsource("V1", "p", "0", ac=1.0)
        c.add_resistor("R1", "p", "a", 5.0)
        c.add_inductor("L1", "0", "a", 1e-6)
        sol = MnaSystem(c).solve_ac(1e6)
        z = complex(5.0, 2.0 * math.pi * 1e6 * 1e-6)
        assert sol.inductor_currents["L1"] == pytest.approx(-1.0 / z, rel=1e-12)
        assert sol.voltage("a") == pytest.approx(1.0 - 5.0 / z, rel=1e-12)

    def test_ring_of_internal_nodes_is_singular_with_hint(self):
        c = Circuit()
        c.add_vsource("V1", "p", "0", ac=1.0)
        c.add_resistor("R0", "p", "0", 1.0)
        c.add_resistor("R1", "x", "y", 1.0)
        c.add_inductor("L1", "y", "x", 1e-6)
        with pytest.raises(SingularCircuitError, match=r"at 1000 Hz;.*'x'"):
            MnaSystem(c).ac_sweep(np.array([1e3, 1e4]))


class TestSweepChecks:
    def test_non_positive_frequency_rejected(self):
        c = Circuit()
        c.add_vsource("V1", "in", "0", ac=1.0)
        c.add_resistor("R1", "in", "0", 50.0)
        for bad in (0.0, -1e3):
            with pytest.raises(ValueError, match="not positive"):
                MnaSystem(c).ac_sweep(np.array([1e3, bad]))

    def test_empty_grid(self):
        sweep = MnaSystem(pi_filter_circuit()).ac_sweep(np.array([]), inductors=["LF.L"])
        assert sweep.x.shape == (0, MnaSystem(pi_filter_circuit()).size)
        assert sweep.voltages("CA#0").shape == (0,)

    def test_singular_point_inside_a_later_block_is_named(self):
        # A lossless series LC across a source is singular exactly where
        # w L == 1/(w C) in floating point; build C to make that so at f0.
        for f0 in np.linspace(1.0e5, 2.0e5, 101):
            omega = 2.0 * math.pi * f0
            cap = 1.0 / (omega * omega)
            if omega * -1.0 + (1.0 / cap) / omega == 0.0:
                break
        else:
            pytest.skip("no exact cancellation on this grid")
        c = Circuit()
        c.add_vsource("V1", "in", "0", ac=1.0)
        c.add_inductor("L1", "in", "m", 1.0)
        c.add_capacitor("C1", "m", "0", cap)
        grid = np.concatenate([np.linspace(1e3, 9e4, 70), [f0], np.linspace(3e5, 4e5, 10)])
        with pytest.raises(SingularCircuitError, match=f"at {f0:.6g} Hz; check for shorted"):
            MnaSystem(c).ac_sweep(grid)
