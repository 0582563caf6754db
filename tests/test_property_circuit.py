"""Property-based tests for the circuit simulator (hypothesis)."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.circuit import Circuit, MnaSystem, TrapezoidSource

resistance = st.floats(min_value=0.1, max_value=1e5, allow_nan=False)
capacitance = st.floats(min_value=1e-12, max_value=1e-4, allow_nan=False)
inductance = st.floats(min_value=1e-9, max_value=1e-2, allow_nan=False)
frequency = st.floats(min_value=1e2, max_value=1e8, allow_nan=False)
kfactor = st.floats(min_value=-0.95, max_value=0.95, allow_nan=False)


class TestMnaProperties:
    @settings(max_examples=40)
    @given(resistance, resistance, frequency)
    def test_divider_bounded_by_source(self, r1, r2, f):
        c = Circuit()
        c.add_vsource("V1", "in", "0", ac=1.0)
        c.add_resistor("R1", "in", "mid", r1)
        c.add_resistor("R2", "mid", "0", r2)
        sol = MnaSystem(c).solve_ac(f)
        v = abs(sol.voltage("mid"))
        assert 0.0 <= v <= 1.0 + 1e-9
        assert math.isclose(v, r2 / (r1 + r2), rel_tol=1e-9)

    @settings(max_examples=40)
    @given(resistance, capacitance, frequency)
    def test_rc_passivity(self, r, cap, f):
        c = Circuit()
        c.add_vsource("V1", "in", "0", ac=1.0)
        c.add_resistor("R1", "in", "out", r)
        c.add_capacitor("C1", "out", "0", cap)
        sol = MnaSystem(c).solve_ac(f)
        assert abs(sol.voltage("out")) <= 1.0 + 1e-9

    @settings(max_examples=40)
    @given(inductance, inductance, kfactor, frequency)
    def test_transformer_passivity(self, l1, l2, k, f):
        c = Circuit()
        c.add_vsource("V1", "p", "0", ac=1.0)
        c.add_resistor("Rs", "p", "a", 1.0)
        c.add_inductor("L1", "a", "0", l1)
        c.add_inductor("L2", "s", "0", l2)
        c.add_resistor("RL", "s", "0", 50.0)
        c.add_coupling("K1", "L1", "L2", k)
        sol = MnaSystem(c).solve_ac(f)
        # Output power cannot exceed what the source can deliver into 1 ohm.
        v_s = abs(sol.voltage("s"))
        assert v_s <= math.sqrt(50.0 / 4.0) + 1e-6

    @settings(max_examples=30)
    @given(resistance, inductance, capacitance, frequency)
    def test_superposition(self, r, l, cap, f):
        def build(a1: float, a2: float) -> complex:
            c = Circuit()
            c.add_vsource("V1", "in", "0", ac=a1)
            c.add_isource("I1", "0", "out", ac=a2)
            c.add_resistor("R1", "in", "out", r)
            c.add_inductor("L1", "out", "gl", l)
            c.add_resistor("RG", "gl", "0", 1.0)
            c.add_capacitor("C1", "out", "0", cap)
            return MnaSystem(c).solve_ac(f).voltage("out")

        both = build(1.0, 1e-3)
        only_v = build(1.0, 0.0)
        only_i = build(0.0, 1e-3)
        assert abs(both - (only_v + only_i)) < 1e-6 * max(1.0, abs(both))


def random_rlc_netlist(seed: int) -> Circuit:
    """A seeded random RLC netlist with mutual couplings and AC V/I sources.

    Every node keeps a resistor to ground, so the system is never singular;
    the rest (branch elements, couplings, source values) is random.
    """
    rng = np.random.default_rng(seed)
    nodes = [f"n{i}" for i in range(int(rng.integers(3, 7)))]
    c = Circuit()
    for i, node in enumerate(nodes):
        c.add_resistor(f"RG{i}", node, "0", float(10.0 ** rng.uniform(0, 4)))
    for i in range(int(rng.integers(2, 6))):
        a, b = rng.choice(len(nodes) + 1, size=2, replace=False)
        n1 = nodes[a - 1] if a else "0"
        n2 = nodes[b - 1] if b else "0"
        kind = rng.integers(3)
        if kind == 0:
            c.add_resistor(f"R{i}", n1, n2, float(10.0 ** rng.uniform(-1, 4)))
        elif kind == 1:
            c.add_capacitor(f"C{i}", n1, n2, float(10.0 ** rng.uniform(-12, -6)))
        else:
            c.add_inductor(f"LB{i}", n1, n2, float(10.0 ** rng.uniform(-9, -4)))
    inductors = []
    for i in range(int(rng.integers(2, 5))):
        node = nodes[int(rng.integers(len(nodes)))]
        c.add_resistor(f"RL{i}", node, f"l{i}", float(10.0 ** rng.uniform(-1, 2)))
        c.add_inductor(f"L{i}", f"l{i}", "0", float(10.0 ** rng.uniform(-8, -4)))
        inductors.append(f"L{i}")
    for i in range(1, len(inductors)):
        c.add_coupling(f"K{i}", inductors[i - 1], inductors[i], float(rng.uniform(-0.5, 0.5)))
    ac_v = complex(rng.uniform(0.1, 2.0), rng.uniform(-1.0, 1.0))
    c.add_vsource("V1", "vs", "0", ac=ac_v)
    c.add_resistor("RS", "vs", nodes[0], float(10.0 ** rng.uniform(0, 2)))
    ac_i = complex(rng.uniform(-1e-2, 1e-2), rng.uniform(-1e-2, 1e-2))
    c.add_isource("I1", nodes[-1], "0", spectrum=lambda f: ac_i / (1.0 + 1j * f / 1e6))
    return c


def system_matrix(mna: MnaSystem, freq: float) -> np.ndarray:
    """``A(f)``, assembled as one point of a sweep block."""
    grid = np.array([freq])
    a = np.empty((1, mna.size, mna.size), dtype=complex)
    mna._fill(a, 2.0 * math.pi * grid, 1.0 / (2.0 * math.pi * grid))
    return a[0]


class TestSweepEquivalence:
    """``ac_sweep`` is exactly the per-point solve, and ``solve_ac`` its row."""

    @pytest.mark.parametrize("seed", range(12))
    def test_rows_equal_per_point_solve(self, seed):
        mna = MnaSystem(random_rlc_netlist(seed))
        freqs = np.logspace(2, 8, 9) * np.random.default_rng(seed).uniform(0.5, 1.5)
        sweep = mna.ac_sweep(freqs)
        assert sweep.x.shape == (len(freqs), mna.size)
        for k, f in enumerate(freqs):
            expected = np.linalg.solve(system_matrix(mna, float(f)), mna._rhs(float(f)))
            assert np.array_equal(sweep.x[k], expected)

    @pytest.mark.parametrize("seed", range(12))
    def test_solve_ac_equals_sweep_row(self, seed):
        circuit = random_rlc_netlist(seed)
        mna = MnaSystem(circuit)
        freqs = np.logspace(3, 7, 5)
        sweep = mna.ac_sweep(freqs)
        for k, f in enumerate(freqs):
            sol = mna.solve_ac(float(f))
            row = sweep.x[k]
            for node in circuit.node_names():
                assert sol.voltage(node) == sweep.voltages(node)[k]
            for name, current in sol.inductor_currents.items():
                assert current == row[mna._ind_rows[name]]
            currents = list(sol.source_currents.values())
            assert np.array_equal(np.array(currents), row[mna._src_row :])
            assert sol.voltage("0") == sweep.voltages("0")[k] == 0.0


def assert_close(got: np.ndarray, want: np.ndarray) -> None:
    np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-12 * float(np.abs(want).max()))


class TestBranchResponses:
    """``ac_sweep(inductors=)`` adds ``A(f)^-1 e_r`` columns to the same solve."""

    @pytest.mark.parametrize("seed", range(12))
    def test_branch_columns_equal_unit_solves(self, seed):
        circuit = random_rlc_netlist(seed)
        mna = MnaSystem(circuit)
        names = [ind.name for ind in circuit.inductors()]
        freqs = np.logspace(2, 8, 7)
        sweep = mna.ac_sweep(freqs, inductors=names)
        assert sweep.branch.shape == (len(freqs), mna.size, len(names))
        assert list(sweep.branch_rows) == names
        for k, f in enumerate(freqs):
            a = system_matrix(mna, float(f))
            for name, row in sweep.branch_rows.items():
                unit = np.zeros(mna.size, dtype=complex)
                unit[row] = 1.0
                assert_close(sweep.branch_response(name)[k], np.linalg.solve(a, unit))

    @pytest.mark.parametrize("seed", range(12))
    def test_rhs_column_equals_plain_sweep(self, seed):
        circuit = random_rlc_netlist(seed)
        mna = MnaSystem(circuit)
        freqs = np.logspace(2, 8, 9)
        plain = mna.ac_sweep(freqs)
        assert plain.branch.shape == (len(freqs), mna.size, 0)
        swept = mna.ac_sweep(freqs, inductors=[ind.name for ind in circuit.inductors()])
        assert_close(swept.x, plain.x)

    def test_one_factorisation_per_frequency(self):
        from repro import obs

        circuit = random_rlc_netlist(3)
        names = [ind.name for ind in circuit.inductors()]
        tracer = obs.enable()
        try:
            MnaSystem(circuit).ac_sweep(np.logspace(3, 7, 11), inductors=names)
        finally:
            obs.disable()
        assert tracer.report().totals()["circuit.mna_factorizations"] == 11

    def test_unknown_inductor_rejected(self):
        circuit = random_rlc_netlist(0)
        with pytest.raises(KeyError, match="L99"):
            MnaSystem(circuit).ac_sweep([1e5], inductors=["L99"])
        with pytest.raises(KeyError, match="RS"):
            MnaSystem(circuit).ac_sweep([1e5], inductors=["RS"])


class TestTrapezoidProperties:
    @settings(max_examples=30)
    @given(
        st.floats(min_value=0.2, max_value=0.8),
        st.floats(min_value=1e4, max_value=1e6),
        st.integers(min_value=1, max_value=40),
    )
    def test_parseval_partial(self, duty, f0, n_harmonics):
        src = TrapezoidSource(0.0, 1.0, f0, duty=duty, t_rise=0.02 / f0, t_fall=0.02 / f0)
        # Partial harmonic power never exceeds the waveform AC power.
        ts = np.linspace(0.0, src.period, 4096, endpoint=False)
        vs = np.array([src.value_at(t) for t in ts])
        total_ac_power = float(np.mean((vs - np.mean(vs)) ** 2))
        partial = sum(
            abs(src.harmonic(n)) ** 2 / 2.0 for n in range(1, n_harmonics + 1)
        )
        assert partial <= total_ac_power * 1.02 + 1e-12

    @settings(max_examples=30)
    @given(st.floats(min_value=0.2, max_value=0.8), st.integers(min_value=1, max_value=100))
    def test_harmonics_below_envelope(self, duty, n):
        src = TrapezoidSource(0.0, 1.0, 1e5, duty=duty, t_rise=2e-7, t_fall=2e-7)
        level = abs(src.harmonic(n))
        env_db = float(src.envelope_db(np.array([n * 1e5]))[0])
        level_db = 20 * math.log10(max(level, 1e-30))
        assert level_db <= env_db + 0.5

    @settings(max_examples=20)
    @given(st.floats(min_value=0.3, max_value=0.7))
    def test_dc_is_duty_times_amplitude(self, duty):
        src = TrapezoidSource(0.0, 1.0, 1e5, duty=duty, t_rise=1e-7, t_fall=1e-7)
        assert math.isclose(src.harmonic(0).real, duty, rel_tol=1e-9)
