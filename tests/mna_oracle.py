"""The full-node MNA assembly, kept as the oracle of the condensed solver.

Unknown vector: ``[node voltages | inductor branch currents | source branch
currents]``, one unknown per non-ground node, so every internal node of a
part model (the C–ESR–ESL chain of a capacitor, the L–ESR chain of a
choke) is an unknown.  ``A(w) = G + jw S`` with conductances in ``G`` and
capacitances and the full inductance matrix in ``S``; one solve per grid
point.  This is the assembly :class:`repro.circuit.MnaSystem` used before
it condensed series chains into branch rows; the equivalence tests compare
the two.
"""

from __future__ import annotations

import math
from collections.abc import Sequence

import numpy as np

from repro.circuit import (
    Capacitor,
    Circuit,
    CurrentSource,
    IdealDiode,
    Resistor,
    SingularCircuitError,
    Switch,
    VoltageSource,
)
from repro.circuit.elements import GROUND_NAMES
from repro.circuit.mna import AcSweepResult, branch_inductance_matrix


#: Whether ``np.longdouble`` carries more precision than ``float``, which
#: the optional refinement needs.
EXTENDED_PRECISION = np.finfo(np.longdouble).eps < np.finfo(float).eps


class FullMnaSystem:
    """Full-node MNA system; ``ac_sweep`` answers like ``MnaSystem.ac_sweep``.

    With ``refine`` every solve takes two steps of iterative refinement
    whose residual ``b - A x`` is formed in ``np.longdouble`` from an
    ``A(w)`` built in ``np.longdouble``, so the answer is the float64
    rounding of the exact solution even where the system is
    ill-conditioned.
    """

    def __init__(self, circuit: Circuit, refine: bool = False):
        self.circuit = circuit
        self.refine = refine
        self.nodes = circuit.node_names()
        self.node_idx = {n: i for i, n in enumerate(self.nodes)}
        self.inductors = circuit.inductors()
        self.ind_idx = {e.name: i for i, e in enumerate(self.inductors)}
        self.sources = [e for e in circuit.elements if isinstance(e, VoltageSource)]
        self.n_nodes = len(self.nodes)
        self.n_ind = len(self.inductors)
        self.size = self.n_nodes + self.n_ind + len(self.sources)
        self.g, self.s = self._assemble()

    def _node(self, name: str) -> int | None:
        return None if name in GROUND_NAMES else self.node_idx[name]

    def _stamp(self, m: np.ndarray, n1: str, n2: str, value: float) -> None:
        i, j = self._node(n1), self._node(n2)
        if i is not None:
            m[i, i] += value
        if j is not None:
            m[j, j] += value
        if i is not None and j is not None:
            m[i, j] -= value
            m[j, i] -= value

    def _incidence(self, g: np.ndarray, row: int, n1: str, n2: str) -> None:
        i, j = self._node(n1), self._node(n2)
        if i is not None:
            g[i, row] += 1.0
            g[row, i] += 1.0
        if j is not None:
            g[j, row] -= 1.0
            g[row, j] -= 1.0

    def _assemble(self) -> tuple[np.ndarray, np.ndarray]:
        g = np.zeros((self.size, self.size))
        s = np.zeros((self.size, self.size))
        for e in self.circuit.elements:
            if isinstance(e, Resistor):
                self._stamp(g, e.n1, e.n2, 1.0 / e.resistance)
            elif isinstance(e, Switch):
                self._stamp(g, e.n1, e.n2, 1.0 / e.ac_resistance())
            elif isinstance(e, IdealDiode):
                self._stamp(g, e.n1, e.n2, 1.0 / (e.r_on if e.ac_state == "on" else e.r_off))
            elif isinstance(e, Capacitor):
                self._stamp(s, e.n1, e.n2, e.capacitance)
        lmat = branch_inductance_matrix(self.inductors, self.circuit.couplings)
        for b, ind in enumerate(self.inductors):
            row = self.n_nodes + b
            self._incidence(g, row, ind.n1, ind.n2)
            s[row, self.n_nodes : self.n_nodes + self.n_ind] -= lmat[b]
        for k, src in enumerate(self.sources):
            self._incidence(g, self.n_nodes + self.n_ind + k, src.n1, src.n2)
        return g, s

    def _rhs(self, grid: np.ndarray) -> np.ndarray:
        rhs = np.zeros(grid.shape + (self.size,), dtype=complex)
        for e in self.circuit.elements:
            if isinstance(e, CurrentSource):
                value = e.phasors(grid)
                i, j = self._node(e.n1), self._node(e.n2)
                if i is not None:
                    rhs[..., i] -= value
                if j is not None:
                    rhs[..., j] += value
        for k, src in enumerate(self.sources):
            rhs[..., self.n_nodes + self.n_ind + k] = src.phasors(grid)
        return rhs

    def ac_sweep(self, freqs: np.ndarray, inductors: Sequence[str] = ()) -> AcSweepResult:
        """Per-point solves of ``[rhs | e_r ...]``, as the former solver did."""
        grid = np.asarray(freqs, dtype=float)
        branch_rows = {name: self.n_nodes + self.ind_idx[name] for name in inductors}
        rhs = np.zeros((self.size, 1 + len(branch_rows)), dtype=complex)
        rhs[list(branch_rows.values()), range(1, rhs.shape[1])] = 1.0
        sources = self._rhs(grid)
        solutions = np.empty((len(grid), self.size, rhs.shape[1]), dtype=complex)
        for k, f in enumerate(grid):
            rhs[:, 0] = sources[k]
            a = self.g + 2j * math.pi * float(f) * self.s
            try:
                solutions[k] = np.linalg.solve(a, rhs)
            except np.linalg.LinAlgError as exc:
                raise SingularCircuitError(f"MNA matrix singular at {f:.6g} Hz") from exc
            if self.refine:
                omega = 2 * np.pi * np.longdouble(f)
                exact = self.g.astype(np.clongdouble) + 1j * omega * self.s.astype(np.clongdouble)
                for _ in range(2):
                    residual = rhs - exact @ solutions[k].astype(np.clongdouble)
                    solutions[k] += np.linalg.solve(a, residual.astype(complex))
        return AcSweepResult(
            grid, solutions[:, :, 0], self.node_idx, solutions[:, :, 1:], branch_rows
        )
