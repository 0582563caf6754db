"""Fixed-step trapezoidal transient analysis.

The paper's flow simulates the converter *"either in time or frequency
domain"*.  The frequency domain carries the EMI benchmarks; this transient
engine provides the time-domain leg: switching waveforms, inrush behaviour
and a cross-check of the harmonic model.

Companion models (trapezoidal rule, step ``h``):

* capacitor — Norton: ``G = 2C/h``, ``Ieq = -G v_prev - i_prev``;
* inductor bank — the *matrix* branch relation keeps mutual couplings
  exact: ``E_n = (2/h) L (I_n - I_prev) - E_prev`` with ``E`` the branch
  voltage vector and ``L`` the full (coupled) inductance matrix;
* switch / diode — state-dependent conductance, with a fixed-point state
  iteration inside each step for the diodes.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .elements import (
    GROUND_NAMES,
    Capacitor,
    CurrentSource,
    IdealDiode,
    Resistor,
    Switch,
    VoltageSource,
)
from ..obs import get_tracer
from .netlist import Circuit
from .mna import branch_inductance_matrix

__all__ = ["TransientResult", "TransientSolver"]

_MAX_DIODE_ITERATIONS = 20


@dataclass
class TransientResult:
    """Time series from a transient run."""

    times: np.ndarray
    node_voltages: dict[str, np.ndarray]
    inductor_currents: dict[str, np.ndarray]

    def voltage(self, node: str) -> np.ndarray:
        """Voltage waveform at a node (zeros for ground)."""
        if node in GROUND_NAMES:
            return np.zeros_like(self.times)
        return self.node_voltages[node]

    def current(self, inductor: str) -> np.ndarray:
        """Branch current waveform of an inductor."""
        return self.inductor_currents[inductor]

    def steady_state_slice(self, settle_fraction: float = 0.5) -> slice:
        """Index slice skipping the initial transient."""
        start = int(len(self.times) * settle_fraction)
        return slice(start, len(self.times))

    def spectrum(self, node: str, settle_fraction: float = 0.5) -> tuple[np.ndarray, np.ndarray]:
        """One-sided amplitude spectrum of a node voltage (steady state).

        Returns (frequencies [Hz], amplitudes [V]).  A Hann window tames
        leakage from the non-integer number of switching periods.
        """
        sl = self.steady_state_slice(settle_fraction)
        v = self.voltage(node)[sl]
        n = len(v)
        if n < 8:
            raise ValueError("too few samples for a spectrum")
        window = np.hanning(n)
        scale = 2.0 / np.sum(window)
        spec = np.abs(np.fft.rfft(v * window)) * scale
        dt = float(self.times[1] - self.times[0])
        freqs = np.fft.rfftfreq(n, dt)
        return freqs, spec


class TransientSolver:
    """Trapezoidal integrator over a fixed time grid."""

    def __init__(self, circuit: Circuit):
        self.circuit = circuit
        # Full MNA indexing: every node, inductor branch and source branch
        # is an unknown (the switching elements change a step's stamps).
        self._node_idx = {n: i for i, n in enumerate(circuit.node_names())}
        self._inductors = circuit.inductors()
        self._sources = [e for e in circuit.elements if isinstance(e, VoltageSource)]
        self._lmat = branch_inductance_matrix(self._inductors, circuit.couplings)

    def _node(self, name: str) -> int | None:
        if name in GROUND_NAMES:
            return None
        return self._node_idx[name]

    def run(self, t_end: float, dt: float, t_start: float = 0.0) -> TransientResult:
        """Integrate from ``t_start`` to ``t_end`` with fixed step ``dt``.

        Raises:
            ValueError: for a non-positive step or empty interval.
        """
        if dt <= 0.0 or t_end <= t_start:
            raise ValueError("need dt > 0 and t_end > t_start")
        tracer = get_tracer()
        with tracer.span("circuit.transient"):
            return self._integrate(t_end, dt, t_start, tracer)

    def _integrate(self, t_end: float, dt: float, t_start, tracer) -> TransientResult:
        # The companion models below divide by these element values; fail
        # fast with the element name instead of a bare ZeroDivisionError
        # three loops deep.
        if dt <= 0.0:
            raise ValueError(f"dt must be > 0, got {dt}")
        for e in self.circuit.elements:
            if isinstance(e, Resistor) and e.resistance <= 0.0:
                raise ValueError(f"resistor {e.name}: resistance must be > 0")
            if isinstance(e, IdealDiode) and (e.r_on <= 0.0 or e.r_off <= 0.0):
                raise ValueError(f"diode {e.name}: r_on/r_off must be > 0")
        solve_count = 0
        n_nodes, n_ind = len(self._node_idx), len(self._inductors)
        size = n_nodes + n_ind + len(self._sources)
        times = np.arange(t_start, t_end + dt * 0.5, dt)
        n_steps = len(times)

        volts = np.zeros((n_steps, n_nodes))
        ind_currents = np.zeros((n_steps, n_ind))

        # Histories.
        cap_v_prev: dict[str, float] = {}
        cap_i_prev: dict[str, float] = {}
        ind_i_prev = np.zeros(n_ind)
        ind_e_prev = np.zeros(n_ind)
        diode_states = {
            e.name: (e.ac_state == "on")
            for e in self.circuit.elements
            if isinstance(e, IdealDiode)
        }

        g_l = (2.0 / dt) * self._lmat

        node_of = self._node
        inductors = self._inductors
        sources = self._sources

        for step, t in enumerate(times):
            for _iteration in range(_MAX_DIODE_ITERATIONS):
                a = np.zeros((size, size))
                rhs = np.zeros(size)

                def stamp_g(na: str, nb: str, gval: float) -> None:
                    i, j = node_of(na), node_of(nb)
                    if i is not None:
                        a[i, i] += gval
                    if j is not None:
                        a[j, j] += gval
                    if i is not None and j is not None:
                        a[i, j] -= gval
                        a[j, i] -= gval

                def stamp_i(na: str, nb: str, ival: float) -> None:
                    # Current ival flowing na -> nb through the element.
                    i, j = node_of(na), node_of(nb)
                    if i is not None:
                        rhs[i] -= ival
                    if j is not None:
                        rhs[j] += ival

                for e in self.circuit.elements:
                    if isinstance(e, Resistor):
                        stamp_g(e.n1, e.n2, 1.0 / e.resistance)
                    elif isinstance(e, Switch):
                        r_sw = e.resistance_at(t)
                        if r_sw <= 0.0:
                            raise ValueError(
                                f"switch {e.name}: resistance_at({t:g}) <= 0"
                            )
                        stamp_g(e.n1, e.n2, 1.0 / r_sw)
                    elif isinstance(e, IdealDiode):
                        if diode_states[e.name]:
                            stamp_g(e.n1, e.n2, 1.0 / e.r_on)
                            # Forward drop as a series EMF folded into a
                            # Norton injection: i = (v - vf)/r_on.
                            stamp_i(e.n1, e.n2, -e.vf / e.r_on)
                        else:
                            stamp_g(e.n1, e.n2, 1.0 / e.r_off)
                    elif isinstance(e, Capacitor):
                        if step == 0:
                            # First point: treat as open with zero history.
                            cap_v_prev.setdefault(e.name, 0.0)
                            cap_i_prev.setdefault(e.name, 0.0)
                        geq = 2.0 * e.capacitance / dt
                        ieq = -geq * cap_v_prev[e.name] - cap_i_prev[e.name]
                        stamp_g(e.n1, e.n2, geq)
                        stamp_i(e.n1, e.n2, ieq)
                    elif isinstance(e, CurrentSource):
                        stamp_i(e.n1, e.n2, e.value_at_time(t))

                # Inductor branch rows with the coupled companion model.
                for b, ind in enumerate(inductors):
                    row = n_nodes + b
                    i, j = node_of(ind.n1), node_of(ind.n2)
                    if i is not None:
                        a[i, row] += 1.0
                        a[row, i] += 1.0
                    if j is not None:
                        a[j, row] -= 1.0
                        a[row, j] -= 1.0
                    a[row, n_nodes : n_nodes + n_ind] -= g_l[b, :]
                    rhs[row] = -float(g_l[b, :] @ ind_i_prev) - ind_e_prev[b]

                # Voltage sources.
                for k, src in enumerate(sources):
                    row = n_nodes + n_ind + k
                    i, j = node_of(src.n1), node_of(src.n2)
                    if i is not None:
                        a[i, row] += 1.0
                        a[row, i] += 1.0
                    if j is not None:
                        a[j, row] -= 1.0
                        a[row, j] -= 1.0
                    rhs[row] = src.value_at_time(t)

                x = np.linalg.solve(a, rhs)
                solve_count += 1

                # Re-evaluate diode states; repeat the step if any flipped.
                changed = False
                for e in self.circuit.elements:
                    if not isinstance(e, IdealDiode):
                        continue
                    i, j = node_of(e.n1), node_of(e.n2)
                    v1 = x[i] if i is not None else 0.0
                    v2 = x[j] if j is not None else 0.0
                    vd = v1 - v2
                    on = diode_states[e.name]
                    # While conducting, vd sits near +vf even for *reverse*
                    # current, so the off test must be on the branch current
                    # i_d = (vd - vf)/r_on < 0, i.e. vd < vf.
                    if on and vd < e.vf:
                        diode_states[e.name] = False
                        changed = True
                    elif not on and vd > e.vf:
                        diode_states[e.name] = True
                        changed = True
                if not changed:
                    break

            volts[step, :] = x[:n_nodes]
            ind_currents[step, :] = x[n_nodes : n_nodes + n_ind]

            # Update histories.
            for e in self.circuit.elements:
                if isinstance(e, Capacitor):
                    i, j = node_of(e.n1), node_of(e.n2)
                    v1 = x[i] if i is not None else 0.0
                    v2 = x[j] if j is not None else 0.0
                    v_now = v1 - v2
                    geq = 2.0 * e.capacitance / dt
                    i_now = geq * (v_now - cap_v_prev[e.name]) - cap_i_prev[e.name]
                    cap_v_prev[e.name] = v_now
                    cap_i_prev[e.name] = i_now
            i_now_vec = x[n_nodes : n_nodes + n_ind]
            e_now = g_l @ (i_now_vec - ind_i_prev) - ind_e_prev
            ind_i_prev = i_now_vec.copy()
            ind_e_prev = e_now

        tracer.count("circuit.transient_steps", n_steps)
        tracer.count("circuit.transient_solves", solve_count)
        node_series = {
            name: volts[:, idx] for name, idx in self._node_idx.items()
        }
        ind_series = {
            ind.name: ind_currents[:, b] for b, ind in enumerate(inductors)
        }
        return TransientResult(times, node_series, ind_series)
