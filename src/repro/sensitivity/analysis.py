"""Sensitivity analysis — ranking which magnetic couplings matter.

The paper, section 2: *"a sensitivity analysis is carried out to trace those
parts of the circuit which are sensitive to magnetic coupling.  Therefore
magnetic coupling factors between inductances are inserted and their
influence on emitted interference of the whole circuit characterized …
The sensitivity analysis generates a ranking list of the most influencing
coupling factors"* — and only the top of the list needs an (expensive)
field simulation.

Implementation: per candidate inductor pair, a probe coupling ``k_probe``
is inserted, the interference spectrum at the measurement node re-solved,
and the worst-case level change recorded.  The analyser works on *any*
circuit with a designated measurement node, typically a LISN port.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations

import numpy as np

from ..circuit import Circuit, MnaSystem
from ..obs import get_tracer

__all__ = ["SensitivityEntry", "SensitivityAnalyzer"]

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

    def _levels_db(self, circuit: Circuit) -> np.ndarray:
        sweep = MnaSystem(circuit).ac_sweep(self.freqs)
        return sweep.magnitude_db(self.measurement_node, reference=1e-6)

    def baseline_db(self) -> np.ndarray:
        """Interference levels [dBµV] with the couplings currently in place."""
        if self._baseline_db is None:
            self._baseline_db = self._levels_db(self.circuit)
        return self._baseline_db

    def probe_pair(self, inductor_a: str, inductor_b: str) -> SensitivityEntry:
        """Impact of adding ``k_probe`` between one inductor pair."""
        get_tracer().count("sensitivity.probes")
        baseline = self.baseline_db()
        variant = self.circuit.clone()
        existing = variant.coupling_value(inductor_a, inductor_b)
        variant.set_coupling(inductor_a, inductor_b, existing + self.k_probe)
        delta = np.abs(self._levels_db(variant) - baseline)
        worst = int(np.argmax(delta))
        return SensitivityEntry(
            inductor_a=inductor_a,
            inductor_b=inductor_b,
            impact_db=float(delta[worst]),
            worst_freq=float(self.freqs[worst]),
        )

    def rank(
        self, candidate_pairs: list[tuple[str, str]] | None = None
    ) -> list[SensitivityEntry]:
        """Probe pairs (all inductor pairs by default) and sort by impact.

        Args:
            candidate_pairs: inductor-name pairs to probe; defaults to all
                ``n (n-1) / 2`` combinations.
        """
        if candidate_pairs is None:
            names = [ind.name for ind in self.circuit.inductors()]
            candidate_pairs = list(combinations(names, 2))
        with get_tracer().span("sensitivity.rank"):
            entries = [self.probe_pair(a, b) for a, b in candidate_pairs]
        entries.sort(key=lambda e: e.impact_db, reverse=True)
        return entries

    def relevant_pairs(
        self,
        threshold_db: float = 3.0,
        candidate_pairs: list[tuple[str, str]] | None = None,
    ) -> list[SensitivityEntry]:
        """The pairs whose probe impact exceeds ``threshold_db``.

        Only these need a field simulation — the paper's complexity
        reduction: *"only the relevant ones have to be simulated in the
        field simulating environment"*.

        Args:
            threshold_db: minimum worst-case level change [dB] to keep.
            candidate_pairs: inductor-name pairs; defaults to all.
        """
        return [e for e in self.rank(candidate_pairs) if e.impact_db >= threshold_db]

    def reduction_ratio(
        self, threshold_db: float = 3.0, candidate_pairs: list[tuple[str, str]] | None = None
    ) -> float:
        """Fraction of candidate pairs pruned by the threshold (0..1)."""
        if candidate_pairs is None:
            names = [ind.name for ind in self.circuit.inductors()]
            candidate_pairs = list(combinations(names, 2))
        if not candidate_pairs:
            return 0.0
        kept = len(self.relevant_pairs(threshold_db, candidate_pairs))
        return 1.0 - kept / len(candidate_pairs)
