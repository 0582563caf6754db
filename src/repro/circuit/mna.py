"""Modified nodal analysis — complex AC sweeps with mutual inductances.

Unknown vector: ``[node voltages | inductor branch currents | source branch
currents]``.  Inductors get explicit branch currents so that mutual
couplings stamp as plain off-diagonal entries of the inductance matrix —
the natural home for the PEEC results.

The system matrix has the affine frequency form ``A(w) = G + jw * S``
(conductances in ``G``; capacitances and the full inductance matrix in
``S``), so a sweep only refactorises per point, which is plenty fast for
the few-hundred-node filter networks of this domain.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from ..obs import get_tracer
from ..units import approx_zero
from .elements import (
    GROUND_NAMES,
    Capacitor,
    CurrentSource,
    IdealDiode,
    Inductor,
    MutualCoupling,
    Resistor,
    Switch,
    VoltageSource,
)
from .netlist import Circuit

__all__ = [
    "AcSolution",
    "AcSweepResult",
    "MnaSystem",
    "SingularCircuitError",
    "branch_inductance_matrix",
    "level_db",
]


class SingularCircuitError(RuntimeError):
    """The MNA matrix is singular; the message names the likely culprits."""


def _conductance(resistance: float, name: str) -> float:
    """``1/R`` for a resistive stamp, rejecting an (approximately) zero R.

    A zero resistance would stamp an infinite conductance and surface much
    later as a confusing singular-matrix failure; fail at assembly instead.
    """
    if approx_zero(resistance):
        raise SingularCircuitError(
            f"element {name!r} has (near-)zero resistance {resistance!r}; "
            "use an ideal source or a small finite resistance instead"
        )
    return 1.0 / resistance


def level_db(phasors: np.ndarray, reference: float) -> np.ndarray:
    """``20 log10(|phasors|/reference)``, magnitudes floored at 1e-30.

    Raises:
        ValueError: if ``reference`` is not a positive level.
    """
    if not reference > 0.0:
        raise ValueError(f"reference must be positive, got {reference!r}")
    return 20.0 * np.log10(np.maximum(np.abs(phasors), 1e-30) / reference)


def branch_inductance_matrix(
    inductors: Sequence[Inductor], couplings: Sequence[MutualCoupling]
) -> np.ndarray:
    """Branch inductance matrix [H]: self-inductances on the diagonal, and
    ``M = k sqrt(La Lb)`` of each coupling added to both off-diagonal slots.

    Raises:
        KeyError: if a coupling names an inductor not in ``inductors``.
    """
    index = {ind.name: i for i, ind in enumerate(inductors)}
    lmat = np.zeros((len(inductors), len(inductors)), dtype=float)
    for i, ind in enumerate(inductors):
        lmat[i, i] = ind.inductance
    for c in couplings:
        ia = index.get(c.inductor_a)
        ib = index.get(c.inductor_b)
        if ia is None or ib is None:
            raise KeyError(f"coupling {c.name!r} references a missing inductor")
        m = c.k * math.sqrt(inductors[ia].inductance * inductors[ib].inductance)
        lmat[ia, ib] += m
        lmat[ib, ia] += m
    return lmat


@dataclass
class AcSolution:
    """Phasor solution at one frequency."""

    freq: float
    node_voltages: dict[str, complex]
    inductor_currents: dict[str, complex]
    source_currents: dict[str, complex]

    def voltage(self, node: str) -> complex:
        """Voltage at a node (ground reads as exactly zero)."""
        if node in GROUND_NAMES:
            return 0.0 + 0.0j
        return self.node_voltages[node]

    def voltage_across(self, n1: str, n2: str) -> complex:
        """Potential difference ``V(n1) - V(n2)``."""
        return self.voltage(n1) - self.voltage(n2)


@dataclass
class AcSweepResult:
    """Solutions over a frequency grid, one row of unknowns per frequency.

    ``x[k]`` is the MNA unknown vector ``[node voltages | inductor branch
    currents | source branch currents]`` at ``freqs[k]``.  ``branch[k, :, r]``
    is ``A(f_k)^-1 e_r``, the response to a unit excitation of the branch row
    of the ``r``-th inductor in ``branch_rows`` (name -> unknown row), for
    the inductors a sweep was asked for.
    """

    freqs: np.ndarray
    x: np.ndarray
    node_index: dict[str, int]
    branch: np.ndarray
    branch_rows: dict[str, int]

    def voltages(self, node: str) -> np.ndarray:
        """Complex voltage at ``node`` across the sweep (ground reads zero)."""
        if node in GROUND_NAMES:
            return np.zeros(len(self.freqs), dtype=complex)
        return self.x[:, self.node_index[node]].copy()

    def branch_response(self, inductor: str) -> np.ndarray:
        """``A(f)^-1 e_r`` across the sweep, ``(F, size)``, for one swept inductor.

        Raises:
            KeyError: if ``inductor`` was not swept.
        """
        if inductor not in self.branch_rows:
            raise KeyError(f"inductor {inductor!r} was not swept: {list(self.branch_rows)}")
        return self.branch[:, :, list(self.branch_rows).index(inductor)]

    def magnitude_db(self, node: str, reference: float = 1.0) -> np.ndarray:
        """``20 log10(|V|/reference)`` across the sweep.

        Raises:
            ValueError: if ``reference`` is not a positive level.
        """
        return level_db(self.voltages(node), reference)

    def __len__(self) -> int:
        return len(self.freqs)


class MnaSystem:
    """Assembled MNA system for a circuit; reusable across sweeps.

    The assembly is a snapshot: build a new ``MnaSystem`` after changing
    the circuit's couplings.
    """

    def __init__(self, circuit: Circuit):
        self.circuit = circuit
        self._nodes = circuit.node_names()
        self._node_idx = {n: i for i, n in enumerate(self._nodes)}
        self._inductors = circuit.inductors()
        self._ind_idx = {e.name: i for i, e in enumerate(self._inductors)}
        self._sources = [e for e in circuit.elements if isinstance(e, VoltageSource)]
        self._src_idx = {e.name: i for i, e in enumerate(self._sources)}
        self.n_nodes = len(self._nodes)
        self.n_ind = len(self._inductors)
        self.n_src = len(self._sources)
        self.size = self.n_nodes + self.n_ind + self.n_src
        self._g, self._s = self._assemble()

    # -- assembly ---------------------------------------------------------

    def _node(self, name: str) -> int | None:
        if name in GROUND_NAMES:
            return None
        return self._node_idx[name]

    def _stamp_conductance(self, g: np.ndarray, n1: str, n2: str, value: float) -> None:
        i, j = self._node(n1), self._node(n2)
        if i is not None:
            g[i, i] += value
        if j is not None:
            g[j, j] += value
        if i is not None and j is not None:
            g[i, j] -= value
            g[j, i] -= value

    def inductance_matrix(self) -> np.ndarray:
        """Branch inductance matrix including mutual terms [H]."""
        return branch_inductance_matrix(self._inductors, self.circuit.couplings)

    def _assemble(self) -> tuple[np.ndarray, np.ndarray]:
        g = np.zeros((self.size, self.size), dtype=float)
        s = np.zeros((self.size, self.size), dtype=float)

        for e in self.circuit.elements:
            if isinstance(e, Resistor):
                self._stamp_conductance(g, e.n1, e.n2, _conductance(e.resistance, e.name))
            elif isinstance(e, Switch):
                self._stamp_conductance(g, e.n1, e.n2, _conductance(e.ac_resistance(), e.name))
            elif isinstance(e, IdealDiode):
                r = e.r_on if e.ac_state == "on" else e.r_off
                self._stamp_conductance(g, e.n1, e.n2, _conductance(r, e.name))
            elif isinstance(e, Capacitor):
                i, j = self._node(e.n1), self._node(e.n2)
                if i is not None:
                    s[i, i] += e.capacitance
                if j is not None:
                    s[j, j] += e.capacitance
                if i is not None and j is not None:
                    s[i, j] -= e.capacitance
                    s[j, i] -= e.capacitance

        # Inductor branches: KCL picks up +-I, branch row enforces
        # V(n1) - V(n2) - jw * sum_m L[b, m] I_m = 0.
        lmat = self.inductance_matrix()
        for b, ind in enumerate(self._inductors):
            row = self.n_nodes + b
            i, j = self._node(ind.n1), self._node(ind.n2)
            if i is not None:
                g[i, row] += 1.0
                g[row, i] += 1.0
            if j is not None:
                g[j, row] -= 1.0
                g[row, j] -= 1.0
            for m in range(self.n_ind):
                if not approx_zero(lmat[b, m]):
                    s[row, self.n_nodes + m] -= lmat[b, m]

        # Voltage-source branches: V(n1) - V(n2) = E.
        for k, src in enumerate(self._sources):
            row = self.n_nodes + self.n_ind + k
            i, j = self._node(src.n1), self._node(src.n2)
            if i is not None:
                g[i, row] += 1.0
                g[row, i] += 1.0
            if j is not None:
                g[j, row] -= 1.0
                g[row, j] -= 1.0
        return g, s

    # -- solving ------------------------------------------------------------

    def _rhs(self, freqs: np.ndarray) -> np.ndarray:
        """Source right-hand sides over a grid, ``freqs.shape + (size,)``.

        Every source's spectrum is evaluated once, over the whole grid.
        """
        grid = np.asarray(freqs, dtype=float)
        rhs = np.zeros(grid.shape + (self.size,), dtype=complex)
        for e in self.circuit.elements:
            if isinstance(e, CurrentSource):
                value = e.phasors(grid)
                i, j = self._node(e.n1), self._node(e.n2)
                # Internal flow n1 -> n2: current leaves node n1's KCL.
                if i is not None:
                    rhs[..., i] -= value
                if j is not None:
                    rhs[..., j] += value
        for k, src in enumerate(self._sources):
            rhs[..., self.n_nodes + self.n_ind + k] = src.phasors(grid)
        return rhs

    def solve_ac(self, freq: float) -> AcSolution:
        """Solve the phasor system at one frequency (a one-point sweep).

        Raises:
            SingularCircuitError: see :meth:`ac_sweep`.
        """
        x = self.ac_sweep([freq]).x[0]
        node_v = {n: complex(x[i]) for n, i in self._node_idx.items()}
        ind_i = {e.name: complex(x[self.n_nodes + i]) for i, e in enumerate(self._inductors)}
        src_base = self.n_nodes + self.n_ind
        src_i = {e.name: complex(x[src_base + i]) for i, e in enumerate(self._sources)}
        return AcSolution(freq, node_v, ind_i, src_i)

    def ac_sweep(
        self, freqs: np.ndarray, inductors: Sequence[str] = ()
    ) -> AcSweepResult:
        """Solve ``(G + jwS) x = rhs(f)`` at every frequency of a grid.

        The one place the system is solved; one factorisation per point.
        Each point solves ``[rhs | e_r1 ... e_rR]`` together, where ``e_r``
        is a unit column at the branch row of each of ``inductors``, so the
        result also carries the branch responses ``A(f)^-1 e_r`` (the
        low-rank sensitivity probes need them) at no extra factorisation.

        Raises:
            KeyError: if a name in ``inductors`` is not an inductor.
            ValueError: if a frequency is not finite.
            SingularCircuitError: if the circuit is singular at a grid
                frequency, with the floating nodes named when that is the
                cause.
        """
        grid = np.asarray(freqs, dtype=float)
        if not np.all(np.isfinite(grid)):
            bad = float(grid[~np.isfinite(grid)][0])
            raise ValueError(f"sweep frequency {bad!r} is not finite")
        branch_rows = {}
        for name in inductors:
            if name not in self._ind_idx:
                raise KeyError(f"no inductor {name!r} in circuit")
            branch_rows[name] = self.n_nodes + self._ind_idx[name]
        rhs = np.zeros((self.size, 1 + len(branch_rows)), dtype=complex)
        rhs[list(branch_rows.values()), range(1, rhs.shape[1])] = 1.0
        x = np.empty((len(grid), self.size), dtype=complex)
        branch = np.empty((len(grid), self.size, len(branch_rows)), dtype=complex)
        tracer = get_tracer()
        with tracer.span("circuit.ac_sweep"):
            sources = self._rhs(grid)
            for k, f in enumerate(grid):
                freq = float(f)
                omega = 2.0 * math.pi * freq
                a = self._g + 1j * omega * self._s
                rhs[:, 0] = sources[k]
                tracer.count("circuit.mna_factorizations")
                try:
                    solution = np.linalg.solve(a, rhs)
                except np.linalg.LinAlgError as exc:
                    floating = self.circuit.floating_nodes()
                    hint = (
                        f"nodes without a conductive path to ground: {floating}"
                        if floating
                        else "check for shorted voltage sources or perfect-k inductor loops"
                    )
                    raise SingularCircuitError(
                        f"MNA matrix singular at {freq:.6g} Hz; {hint}"
                    ) from exc
                x[k] = solution[:, 0]
                branch[k] = solution[:, 1:]
        return AcSweepResult(grid, x, self._node_idx, branch, branch_rows)
