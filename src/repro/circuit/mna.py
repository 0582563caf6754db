"""Modified nodal analysis — complex AC sweeps with mutual inductances.

The system is *condensed*: every maximal series chain of R/L/C elements
through internal nodes is one branch row.  An internal node is a non-ground
node touched by exactly two R/L/C elements and by nothing else, so the
C–ESR–ESL model of a capacitor or the L–ESR model of a choke costs one
unknown, not three.  A chain holds at most one inductor; a lone inductor
is a one-element chain, and a lone resistor or capacitor stamps nodally.

Unknown vector: ``[node voltages | chain branch currents | source branch
currents]`` (internal nodes are not unknowns).  A chain from ``a`` to ``b``
contributes the row::

    V(a) - V(b) - (R + jwL + 1/(jwC)) I - jw sum_m M I_m = 0

so mutual couplings stamp as plain off-diagonal entries between chain rows
— the natural home for the PEEC results — and the system matrix is
``A(w) = G + jw S + Q/(jw)`` with three frequency-independent matrices.  A
sweep fills ``A`` in place for a block of grid points and solves the block
with one batched LAPACK call.
"""

from __future__ import annotations

import math
from collections import defaultdict
from collections.abc import Sequence
from dataclasses import dataclass, field

import numpy as np

from ..obs import get_tracer
from ..units import approx_zero
from .elements import (
    GROUND_NAMES,
    Capacitor,
    CircuitElement,
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

#: Grid points per batched solve.  Blocks keep the ``(block, n, n)``
#: system buffer small (peak memory does not grow with the grid) while a
#: batched solve of a ~20-unknown system costs about two thirds of the
#: same points solved one at a time.
_BLOCK = 64

#: Elements a series chain is made of.
_SERIES = (Resistor, Inductor, Capacitor)


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


@dataclass(frozen=True)
class _Chain:
    """A series chain: ``nodes[i]`` and ``nodes[i + 1]`` bound ``elements[i]``.

    ``nodes[0]`` and ``nodes[-1]`` are the chain's ends (they may be the
    same node); the others are its internal nodes.  A chain with an
    inductor runs from the inductor's ``n1`` to its ``n2``, so the chain
    current is the inductor current.
    """

    nodes: tuple[str, ...]
    elements: tuple[CircuitElement, ...]

    def inductor(self) -> int | None:
        """Position of the chain's inductor, if it has one."""
        for i, e in enumerate(self.elements):
            if isinstance(e, Inductor):
                return i
        return None


def _series_chains(elements: Sequence[CircuitElement]) -> list[_Chain]:
    """The maximal series chains of a netlist, in element order.

    Every inductor lies on exactly one chain; a resistor or capacitor lies
    on one when it touches an internal node.  A ring of internal nodes is
    opened at one of its nodes, and a run with two inductors is cut at the
    node before the second one; the cut nodes stay unknowns.
    """
    touching: dict[str, list[CircuitElement]] = defaultdict(list)
    for e in elements:
        for n in e.nodes():
            if n not in GROUND_NAMES:
                touching[n].append(e)
    internal = {
        n for n, es in touching.items() if len(es) == 2 and all(isinstance(e, _SERIES) for e in es)
    }

    def walk(node: str, first: CircuitElement):
        """Nodes and elements met leaving ``first`` through ``node``, and
        whether the walk came back to ``first`` (a ring)."""
        nodes, elems, prev = [node], [], first
        while node in internal:
            a, b = touching[node]
            nxt = b if a is prev else a
            if nxt is first:
                return nodes, elems, True
            node = nxt.n2 if nxt.n1 == node else nxt.n1
            nodes.append(node)
            elems.append(nxt)
            prev = nxt
        return nodes, elems, False

    chains: list[_Chain] = []
    on_chain: set[int] = set()
    for e in elements:
        if not isinstance(e, _SERIES) or id(e) in on_chain:
            continue
        if not isinstance(e, Inductor) and e.n1 not in internal and e.n2 not in internal:
            continue
        ahead, forward, ring = walk(e.n2, e)
        if ring:
            nodes, elems = [e.n1, *ahead], [e, *forward]
        else:
            behind, backward, _ = walk(e.n1, e)
            nodes = [*reversed(behind), *ahead]
            elems = [*reversed(backward), e, *forward]
        on_chain.update(id(x) for x in elems)
        start = 0
        seen_inductor = False
        for i, x in enumerate(elems):
            if isinstance(x, Inductor):
                if seen_inductor:
                    chains.append(_Chain(tuple(nodes[start : i + 1]), tuple(elems[start:i])))
                    start = i
                seen_inductor = True
        chains.append(_Chain(tuple(nodes[start:]), tuple(elems[start:])))

    oriented = []
    for chain in chains:
        at = chain.inductor()
        if at is not None and chain.nodes[at] != chain.elements[at].n1:
            chain = _Chain(chain.nodes[::-1], chain.elements[::-1])
        oriented.append(chain)
    return oriented


def _series_sums(elements: Sequence[CircuitElement]) -> tuple[float, float]:
    """Total resistance [ohm] and elastance ``sum 1/C`` [1/F] of series elements."""
    resistance = sum(e.resistance for e in elements if isinstance(e, Resistor))
    elastance = sum(
        1.0 / e.capacitance  # Capacitor rejects C <= 0
        for e in elements
        if isinstance(e, Capacitor)
    )
    return resistance, elastance


@dataclass(frozen=True)
class _Tap:
    """An internal node's voltage read from one end of its chain.

    ``V = x[end] - sign * (resistance + elastance/(jw)) * x[row]``: from the
    chain's start (``sign`` +1) for a node before the chain's inductor, from
    its end (``sign`` -1) otherwise.  So no tap crosses an inductor, and a
    tap is the same linear form of the unknowns whatever the couplings.
    """

    end: int | None
    row: int
    sign: float
    resistance: float
    elastance: float

    def read(self, freqs: np.ndarray, vectors: np.ndarray) -> np.ndarray:
        """The node voltage over a grid from ``(F, size, ...)`` unknown vectors."""
        z = self.resistance + self.elastance / (2j * math.pi * freqs)
        z = z.reshape(z.shape + (1,) * (vectors.ndim - 2))
        drop = self.sign * z * vectors[:, self.row]
        if self.end is None:
            return -drop
        return vectors[:, self.end] - drop


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

    ``x[k]`` is the MNA unknown vector at ``freqs[k]``; ``node_index`` maps
    each node that is an unknown to its row, and ``taps`` reads every
    internal chain node from its chain.  ``branch[k, :, r]`` is
    ``A(f_k)^-1 e_r``, the response to a unit excitation of the branch row
    of the ``r``-th inductor in ``branch_rows`` (name -> unknown row), for
    the inductors a sweep was asked for.
    """

    freqs: np.ndarray
    x: np.ndarray
    node_index: dict[str, int]
    branch: np.ndarray
    branch_rows: dict[str, int]
    taps: dict[str, _Tap] = field(default_factory=dict)

    def read_voltage(self, node: str, vectors: np.ndarray) -> np.ndarray:
        """Voltage at ``node`` from ``(F, size, ...)`` unknown vectors.

        ``vectors`` may be ``x`` or branch responses: a node voltage is a
        linear form of the unknowns at each frequency.

        Raises:
            KeyError: if ``node`` is not a node of the circuit.
        """
        if node in GROUND_NAMES:
            return np.zeros((len(self.freqs),) + vectors.shape[2:], dtype=complex)
        row = self.node_index.get(node)
        if row is not None:
            return vectors[:, row].copy()
        if node not in self.taps:
            raise KeyError(node)
        return self.taps[node].read(self.freqs, vectors)

    def voltages(self, node: str) -> np.ndarray:
        """Complex voltage at ``node`` across the sweep (ground reads zero)."""
        return self.read_voltage(node, self.x)

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
    """Assembled, condensed MNA system for a circuit; reusable across sweeps.

    The assembly is a snapshot: build a new ``MnaSystem`` after changing
    the circuit's couplings.
    """

    def __init__(self, circuit: Circuit):
        self.circuit = circuit
        self._chains = _series_chains(circuit.elements)
        chained = {n for chain in self._chains for n in chain.nodes[1:-1]}
        self.nodes = [n for n in circuit.node_names() if n not in chained]
        self._node_idx = {n: i for i, n in enumerate(self.nodes)}
        first_row = len(self.nodes)
        self._inductors = circuit.inductors()
        self._ind_rows = {}
        for r, chain in enumerate(self._chains):
            at = chain.inductor()
            if at is not None:
                self._ind_rows[chain.elements[at].name] = first_row + r
        self._sources = [e for e in circuit.elements if isinstance(e, VoltageSource)]
        self._src_row = first_row + len(self._chains)
        self.size = self._src_row + len(self._sources)
        self._g, self._s, self._q_rows, self._elastance = self._assemble()
        self._taps = self._tap_map()

    # -- assembly ---------------------------------------------------------

    def _node(self, name: str) -> int | None:
        if name in GROUND_NAMES:
            return None
        return self._node_idx[name]

    def _stamp_nodal(self, m: np.ndarray, n1: str, n2: str, value: float) -> None:
        i, j = self._node(n1), self._node(n2)
        if i is not None:
            m[i, i] += value
        if j is not None:
            m[j, j] += value
        if i is not None and j is not None:
            m[i, j] -= value
            m[j, i] -= value

    def _stamp_branch(self, g: np.ndarray, row: int, n1: str, n2: str) -> None:
        """KCL picks up ``+-I`` at ``n1``/``n2``; the row reads ``V(n1) - V(n2)``."""
        i, j = self._node(n1), self._node(n2)
        if i is not None:
            g[i, row] += 1.0
            g[row, i] += 1.0
        if j is not None:
            g[j, row] -= 1.0
            g[row, j] -= 1.0

    def inductance_matrix(self) -> np.ndarray:
        """Branch inductance matrix including mutual terms [H]."""
        return branch_inductance_matrix(self._inductors, self.circuit.couplings)

    def _assemble(self) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """``G``, ``S`` and the diagonal of ``Q`` as (rows, elastances).

        ``Q = -diag(sum 1/C)`` over the chain rows holding capacitors.
        """
        g = np.zeros((self.size, self.size), dtype=float)
        s = np.zeros((self.size, self.size), dtype=float)
        chained = {id(e) for chain in self._chains for e in chain.elements}
        stamp = self._stamp_nodal
        for e in self.circuit.elements:
            if id(e) in chained:
                continue
            if isinstance(e, Resistor):
                stamp(g, e.n1, e.n2, _conductance(e.resistance, e.name))
            elif isinstance(e, Switch):
                stamp(g, e.n1, e.n2, _conductance(e.ac_resistance(), e.name))
            elif isinstance(e, IdealDiode):
                r = e.r_on if e.ac_state == "on" else e.r_off
                stamp(g, e.n1, e.n2, _conductance(r, e.name))
            elif isinstance(e, Capacitor):
                stamp(s, e.n1, e.n2, e.capacitance)

        first_row = len(self.nodes)
        q_rows, elastance = [], []
        for r, chain in enumerate(self._chains):
            row = first_row + r
            self._stamp_branch(g, row, chain.nodes[0], chain.nodes[-1])
            resistance, inverse_c = _series_sums(chain.elements)
            g[row, row] -= resistance
            if inverse_c:
                q_rows.append(row)
                elastance.append(inverse_c)

        lmat = self.inductance_matrix()
        rows = [self._ind_rows[ind.name] for ind in self._inductors]
        s[np.ix_(rows, rows)] -= lmat

        for k, src in enumerate(self._sources):
            self._stamp_branch(g, self._src_row + k, src.n1, src.n2)
        return g, s, np.array(q_rows, dtype=int), np.array(elastance, dtype=float)

    def _tap_map(self) -> dict[str, _Tap]:
        """How each internal chain node is read back from the unknowns."""
        taps = {}
        first_row = len(self.nodes)
        for r, chain in enumerate(self._chains):
            at = chain.inductor()
            nodes, elements = chain.nodes, chain.elements
            for i in range(1, len(nodes) - 1):
                # Node i sits between elements i-1 and i.
                if at is None or i <= at:
                    end, sign, passed = nodes[0], 1.0, elements[:i]
                else:
                    end, sign, passed = nodes[-1], -1.0, elements[i:]
                resistance, elastance = _series_sums(passed)
                taps[nodes[i]] = _Tap(self._node(end), first_row + r, sign, resistance, elastance)
        return taps

    def _fill(self, a: np.ndarray, omega: np.ndarray, inverse_omega: np.ndarray) -> None:
        """Write ``A(w) = G + jw S + Q/(jw)`` at each angular frequency into ``a``."""
        a.real[...] = self._g
        np.multiply(self._s, omega[:, None, None], out=a.imag)
        rows = self._q_rows
        a.imag[:, rows, rows] += self._elastance * inverse_omega[:, None]

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
            rhs[..., self._src_row + k] = src.phasors(grid)
        return rhs

    def solve_ac(self, freq: float) -> AcSolution:
        """Solve the phasor system at one frequency (a one-point sweep).

        Raises:
            ValueError: see :meth:`ac_sweep`.
            SingularCircuitError: see :meth:`ac_sweep`.
        """
        sweep = self.ac_sweep([freq])
        x = sweep.x[0]
        node_v = {n: complex(sweep.voltages(n)[0]) for n in self.circuit.node_names()}
        ind_i = {e.name: complex(x[self._ind_rows[e.name]]) for e in self._inductors}
        src_i = {e.name: complex(x[self._src_row + i]) for i, e in enumerate(self._sources)}
        return AcSolution(freq, node_v, ind_i, src_i)

    def _singular(self, freqs: np.ndarray, a: np.ndarray) -> SingularCircuitError:
        """The error for a block whose batched solve failed, naming its
        first singular frequency (found by solving point by point)."""
        freq = float(freqs[0])
        probe = np.ones(self.size)
        for f, matrix in zip(freqs, a):
            try:
                np.linalg.solve(matrix, probe)
            except np.linalg.LinAlgError:
                freq = float(f)
                break
        floating = self.circuit.floating_nodes()
        hint = (
            f"nodes without a conductive path to ground: {floating}"
            if floating
            else "check for shorted voltage sources or perfect-k inductor loops"
        )
        return SingularCircuitError(f"MNA matrix singular at {freq:.6g} Hz; {hint}")

    def ac_sweep(
        self, freqs: np.ndarray, inductors: Sequence[str] = ()
    ) -> AcSweepResult:
        """Solve ``A(w) x = rhs(f)`` at every frequency of a grid.

        The one place the system is solved; one factorisation per point,
        in batched blocks of grid points.  Each point solves ``[rhs | e_r1
        ... e_rR]`` together, where ``e_r`` is a unit column at the branch
        row of each of ``inductors``, so the result also carries the branch
        responses ``A(f)^-1 e_r`` (the low-rank sensitivity probes need
        them) at no extra factorisation.

        Raises:
            KeyError: if a name in ``inductors`` is not an inductor.
            ValueError: if a frequency is not finite, or not positive
                (``Q/(jw)`` diverges at 0 Hz).
            SingularCircuitError: if the circuit is singular at a grid
                frequency, with the floating nodes named when that is the
                cause.
        """
        grid = np.asarray(freqs, dtype=float)
        if not np.all(np.isfinite(grid)):
            bad = float(grid[~np.isfinite(grid)][0])
            raise ValueError(f"sweep frequency {bad!r} is not finite")
        if np.any(grid <= 0.0):
            bad = float(grid[grid <= 0.0][0])
            raise ValueError(f"sweep frequency {bad!r} is not positive")
        branch_rows = {}
        for name in inductors:
            if name not in self._ind_rows:
                raise KeyError(f"no inductor {name!r} in circuit")
            branch_rows[name] = self._ind_rows[name]
        omega = 2.0 * math.pi * grid
        inverse_omega = 1.0 / (2.0 * math.pi * grid)
        n_points = len(grid)
        block = min(_BLOCK, n_points)
        a = np.empty((block, self.size, self.size), dtype=complex)
        rhs = np.zeros((block, self.size, 1 + len(branch_rows)), dtype=complex)
        rhs[:, list(branch_rows.values()), range(1, rhs.shape[2])] = 1.0
        x = np.empty((n_points, self.size), dtype=complex)
        branch = np.empty((n_points, self.size, len(branch_rows)), dtype=complex)
        tracer = get_tracer()
        with tracer.span("circuit.ac_sweep"):
            sources = self._rhs(grid)
            for lo in range(0, n_points, _BLOCK):
                hi = min(lo + _BLOCK, n_points)
                a_blk, rhs_blk = a[: hi - lo], rhs[: hi - lo]
                self._fill(a_blk, omega[lo:hi], inverse_omega[lo:hi])
                rhs_blk[:, :, 0] = sources[lo:hi]
                tracer.count("circuit.mna_factorizations", hi - lo)
                try:
                    solution = np.linalg.solve(a_blk, rhs_blk)
                except np.linalg.LinAlgError as exc:
                    raise self._singular(grid[lo:hi], a_blk) from exc
                x[lo:hi] = solution[:, :, 0]
                branch[lo:hi] = solution[:, :, 1:]
        return AcSweepResult(grid, x, self._node_idx, branch, branch_rows, self._taps)
