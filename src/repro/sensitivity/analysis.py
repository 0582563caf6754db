"""Sensitivity analysis — ranking which magnetic couplings matter.

The paper, section 2: *"a sensitivity analysis is carried out to trace those
parts of the circuit which are sensitive to magnetic coupling.  Therefore
magnetic coupling factors between inductances are inserted and their
influence on emitted interference of the whole circuit characterized …
The sensitivity analysis generates a ranking list of the most influencing
coupling factors"* — and only the top of the list needs an (expensive)
field simulation.

Implementation: per candidate inductor pair, a probe coupling ``k_probe``
is inserted and the worst-case change of the interference level at the
measurement node recorded.  The analyser works on *any*
circuit with a designated measurement node, typically a LISN port.

A probe adds ``dM = k_probe sqrt(L_a L_b)`` to the two off-diagonal
inductance entries of branches ``a`` and ``b``: a rank-2 change
``A' = A + U C V^T`` of the MNA matrix with ``U = [e_a, e_b]``,
``V = [e_b, e_a]`` and ``C = -jw dM I``.  So one sweep of the unprobed
circuit that also returns the branch responses ``Z = A^-1 [e_r ...]`` ranks
every probe exactly, by the Sherman-Morrison-Woodbury identity::

    x' = x - Z U (I + C V^T Z U)^-1 C V^T x

— a closed-form 2x2 solve per probe and frequency instead of a new
factorisation.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass
from itertools import combinations

import numpy as np

from ..circuit import AcSweepResult, Circuit, MnaSystem, MutualCoupling, SingularCircuitError
from ..circuit.mna import level_db
from ..obs import get_tracer

__all__ = ["SensitivityEntry", "SensitivityAnalyzer", "relevant_pairs"]

#: A probed variant counts as singular when ``|det(A') / det(A)|`` (by the
#: matrix determinant lemma ``det(I + C V^T Z U)``) is below this.  A
#: perfect-k probe (two parallel 1 uH inductors, k 0.99 + 0.01) measured
#: 4e-15 to 2.3e-14 — rounding level — while every buck-design probe
#: measured >= 0.979.
_SINGULAR_DET_RATIO = 1e-9

#: Per-line level changes below this [dB] are rounding noise and count as
#: zero.  A pair isolated from the measurement node scores 3.6e-15 to
#: 1.4e-14 dB on the buck design, so without the floor its impact and
#: ``worst_freq`` would be an argmax over noise that any change of solve
#: path reorders.
_NOISE_FLOOR_DB = 1e-12


@dataclass(frozen=True)
class SensitivityEntry:
    """Impact of one probed coupling on the measured interference."""

    inductor_a: str
    inductor_b: str
    impact_db: float
    worst_freq: float

    def pair(self) -> tuple[str, str]:
        """Canonical (sorted) pair key."""
        return tuple(sorted((self.inductor_a, self.inductor_b)))  # type: ignore[return-value]


def relevant_pairs(
    ranking: Sequence[SensitivityEntry], threshold_db: float
) -> list[SensitivityEntry]:
    """The entries of a ranking whose probe impact reaches ``threshold_db``.

    Only these need a field simulation — the paper's complexity
    reduction: *"only the relevant ones have to be simulated in the
    field simulating environment"*.  The ranking's order is kept.

    Args:
        ranking: probed pairs, e.g. :meth:`SensitivityAnalyzer.rank`.
        threshold_db: minimum worst-case level change [dB] to keep.
    """
    return [e for e in ranking if e.impact_db >= threshold_db]


class SensitivityAnalyzer:
    """Probes coupling factors and ranks their interference impact.

    Args:
        circuit: the system model (sources configured for the EMI run).
        measurement_node: node whose voltage is "the interference".
        freqs: analysis frequencies [Hz] (e.g. switching harmonics).
        k_probe: probe coupling factor inserted pairwise; the paper uses
            values around 0.01–0.1, small enough to stay in the linear
            regime, large enough to rise above numerical noise.
    """

    def __init__(
        self,
        circuit: Circuit,
        measurement_node: str,
        freqs: np.ndarray,
        k_probe: float = 0.01,
    ):
        if k_probe <= 0.0 or k_probe > 1.0:
            raise ValueError("k_probe must be in (0, 1]")
        self.circuit = circuit
        self.measurement_node = measurement_node
        self.freqs = np.asarray(freqs, dtype=float)
        self.k_probe = k_probe
        self._baseline_db: np.ndarray | None = None

    def baseline_db(self) -> np.ndarray:
        """Interference levels [dBµV] with the couplings currently in place."""
        if self._baseline_db is None:
            self._baseline_db = self._sweep(()).magnitude_db(self.measurement_node, 1e-6)
        return self._baseline_db

    def _sweep(self, inductors: Sequence[str]) -> AcSweepResult:
        return MnaSystem(self.circuit).ac_sweep(self.freqs, inductors=inductors)

    def probe_pair(self, inductor_a: str, inductor_b: str) -> SensitivityEntry:
        """Impact of adding ``k_probe`` between one inductor pair."""
        return self._probe(self._sweep((inductor_a, inductor_b)), inductor_a, inductor_b)

    def rank(
        self, candidate_pairs: list[tuple[str, str]] | None = None
    ) -> list[SensitivityEntry]:
        """Probe pairs (all inductor pairs by default) and sort by impact.

        Equal impacts (every pair whose changes all lie below the noise
        floor scores exactly 0 dB) are ordered by their canonical pair.

        One sweep of the circuit, with the branch responses of every
        inductor in ``candidate_pairs``, serves all probes.

        Args:
            candidate_pairs: inductor-name pairs to probe; defaults to all
                ``n (n-1) / 2`` combinations.
        """
        if candidate_pairs is None:
            names = [ind.name for ind in self.circuit.inductors()]
            candidate_pairs = list(combinations(names, 2))
        with get_tracer().span("sensitivity.rank"):
            sweep = self._sweep(list(dict.fromkeys(n for pair in candidate_pairs for n in pair)))
            entries = [self._probe(sweep, a, b) for a, b in candidate_pairs]
        entries.sort(key=lambda e: (-e.impact_db, e.pair()))
        return entries

    def _probe(self, sweep: AcSweepResult, inductor_a: str, inductor_b: str) -> SensitivityEntry:
        """One probe, by the Woodbury update of a sweep holding both branch responses.

        Raises:
            ValueError: if the probed coupling breaks ``|k| <= 1`` or couples
                an inductor to itself (as ``Circuit.set_coupling`` would).
            SingularCircuitError: if the probed variant is singular.
        """
        get_tracer().count("sensitivity.probes")
        k = self.circuit.coupling_value(inductor_a, inductor_b) + self.k_probe
        MutualCoupling(f"K_{inductor_a}_{inductor_b}", inductor_a, inductor_b, k)  # validates
        l_a = self.circuit.find(inductor_a).inductance
        l_b = self.circuit.find(inductor_b).inductance
        c = -2j * np.pi * self.freqs * self.k_probe * np.sqrt(l_a * l_b)

        ra, rb = sweep.branch_rows[inductor_a], sweep.branch_rows[inductor_b]
        za, zb = sweep.branch_response(inductor_a), sweep.branch_response(inductor_b)
        # M = I + C V^T Z U, where V^T Z U = [[Z_ba, Z_bb], [Z_aa, Z_ab]];
        # det(M) = det(A') / det(A) by the matrix determinant lemma.
        m00 = 1.0 + c * za[:, rb]
        m01 = c * zb[:, rb]
        m10 = c * za[:, ra]
        m11 = 1.0 + c * zb[:, ra]
        det = m00 * m11 - m01 * m10
        singular = np.flatnonzero(np.abs(det) < _SINGULAR_DET_RATIO)
        if singular.size:
            raise SingularCircuitError(
                f"MNA matrix singular at {self.freqs[singular[0]]:.6g} Hz with the "
                f"probe k = {k:g} between {inductor_a!r} and {inductor_b!r}; "
                "check for perfect-k inductor loops"
            )
        # Cramer's rule for M y = C V^T x, where V^T x = [x_b, x_a]:
        # x'_m = (x_m det(M) - Z_m,[a,b] adj(M) C V^T x) / det(M).
        cx_b = c * sweep.x[:, rb]
        cx_a = c * sweep.x[:, ra]
        baseline = sweep.voltages(self.measurement_node)
        za_m = sweep.read_voltage(self.measurement_node, za)
        zb_m = sweep.read_voltage(self.measurement_node, zb)
        scaled = baseline * det - (
            za_m * (m11 * cx_b - m01 * cx_a) + zb_m * (m00 * cx_a - m10 * cx_b)
        )
        probed = np.abs(scaled) / np.abs(det)
        delta = np.abs(level_db(probed, 1e-6) - level_db(baseline, 1e-6))
        delta[delta < _NOISE_FLOOR_DB] = 0.0
        worst = int(np.argmax(delta))
        return SensitivityEntry(
            inductor_a=inductor_a,
            inductor_b=inductor_b,
            impact_db=float(delta[worst]),
            worst_freq=float(self.freqs[worst]),
        )
