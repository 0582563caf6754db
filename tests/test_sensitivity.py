"""Unit tests for the coupling sensitivity analysis."""

from itertools import combinations

import numpy as np
import pytest

from repro.circuit import Circuit
from repro.converters import COUPLING_BRANCHES, BuckConverterDesign
from repro.sensitivity import SensitivityAnalyzer, SensitivityEntry, relevant_pairs


def pi_filter_circuit() -> Circuit:
    """A pi filter between a noise source and a 50-ohm measurement node.

    Couplings between CA.ESL and CB.ESL bypass the choke and visibly raise
    the output level — the textbook case the paper's example cites.
    """
    c = Circuit("pi filter")
    c.add_vsource("VN", "src", "0", ac=1.0)
    c.add_resistor("RS", "src", "a", 10.0)
    c.add_real_capacitor("CA", "a", "0", 1e-6, esr=0.02, esl=15e-9)
    c.add_real_inductor("LF", "a", "b", 100e-6, esr=0.05)
    c.add_real_capacitor("CB", "b", "0", 1e-6, esr=0.02, esl=15e-9)
    c.add_resistor("RM", "b", "0", 50.0)
    # An electrically irrelevant stub inductor far from the signal path.
    c.add_inductor("LSTUB", "stub", "0", 1e-6)
    c.add_resistor("RSTUB", "b", "stub", 1e6)
    return c


FREQS = np.geomspace(1e6, 50e6, 12)


class TestAnalyzer:
    def test_probe_increases_filter_leakage(self):
        analyzer = SensitivityAnalyzer(pi_filter_circuit(), "b", FREQS, k_probe=0.05)
        entry = analyzer.probe_pair("CA.ESL", "CB.ESL")
        assert entry.impact_db > 3.0
        assert entry.worst_freq in FREQS

    def test_irrelevant_pair_low_impact(self):
        analyzer = SensitivityAnalyzer(pi_filter_circuit(), "b", FREQS, k_probe=0.05)
        relevant = analyzer.probe_pair("CA.ESL", "CB.ESL")
        irrelevant = analyzer.probe_pair("CA.ESL", "LSTUB")
        assert irrelevant.impact_db < relevant.impact_db

    def test_rank_sorted_descending(self):
        analyzer = SensitivityAnalyzer(pi_filter_circuit(), "b", FREQS, k_probe=0.05)
        ranking = analyzer.rank()
        impacts = [e.impact_db for e in ranking]
        assert impacts == sorted(impacts, reverse=True)
        assert len(ranking) == 6  # C(4 inductors, 2)

    def test_relevant_pairs_threshold(self):
        analyzer = SensitivityAnalyzer(pi_filter_circuit(), "b", FREQS, k_probe=0.05)
        ranking = analyzer.rank()
        relevant = relevant_pairs(ranking, 3.0)
        assert relevant
        assert relevant == ranking[: len(relevant)]  # the ranking's head, in order
        assert all(e.impact_db >= 3.0 for e in relevant)
        pairs = {e.pair() for e in relevant}
        assert ("CA.ESL", "CB.ESL") in pairs

    def test_reduction_ratio(self):
        analyzer = SensitivityAnalyzer(pi_filter_circuit(), "b", FREQS, k_probe=0.05)
        ranking = analyzer.rank()
        ratio = 1.0 - len(relevant_pairs(ranking, 3.0)) / len(ranking)
        assert 0.0 < ratio < 1.0

    def test_baseline_cached(self):
        analyzer = SensitivityAnalyzer(pi_filter_circuit(), "b", FREQS)
        b1 = analyzer.baseline_db()
        b2 = analyzer.baseline_db()
        assert b1 is b2

    def test_probe_does_not_mutate_circuit(self):
        circuit = pi_filter_circuit()
        analyzer = SensitivityAnalyzer(circuit, "b", FREQS, k_probe=0.05)
        analyzer.probe_pair("CA.ESL", "CB.ESL")
        assert circuit.coupling_value("CA.ESL", "CB.ESL") == 0.0

    def test_probe_adds_on_top_of_existing(self):
        circuit = pi_filter_circuit()
        circuit.set_coupling("CA.ESL", "CB.ESL", 0.02)
        analyzer = SensitivityAnalyzer(circuit, "b", FREQS, k_probe=0.05)
        entry = analyzer.probe_pair("CA.ESL", "CB.ESL")
        assert entry.impact_db > 0.0

    def test_invalid_probe(self):
        with pytest.raises(ValueError):
            SensitivityAnalyzer(pi_filter_circuit(), "b", FREQS, k_probe=0.0)

    def test_explicit_candidates(self):
        analyzer = SensitivityAnalyzer(pi_filter_circuit(), "b", FREQS, k_probe=0.05)
        ranking = analyzer.rank([("CA.ESL", "LF.L")])
        assert len(ranking) == 1


class TestRankingTail:
    """Pairs isolated from the measurement node score exactly 0 dB."""

    def ranking(self, pairs):
        design = BuckConverterDesign()
        circuit, meas = design.emi_circuit()
        freqs = design.harmonic_frequencies()[::8]
        return SensitivityAnalyzer(circuit, meas, freqs, k_probe=0.02).rank(pairs), freqs

    def test_tail_is_ordered_by_pair(self):
        pairs = list(combinations(sorted(COUPLING_BRANCHES), 2))
        ranking, freqs = self.ranking(pairs)
        tail = [e for e in ranking if e.impact_db == 0.0]
        assert len(tail) >= 10
        assert ranking[-len(tail) :] == tail
        assert [e.pair() for e in tail] == sorted(e.pair() for e in tail)
        assert all(e.worst_freq == freqs[0] for e in tail)
        assert all(e.impact_db > 1e-6 for e in ranking[: -len(tail)])

    def test_order_does_not_depend_on_candidate_order(self):
        pairs = list(combinations(sorted(COUPLING_BRANCHES), 2))
        forward, _ = self.ranking(pairs)
        backward, _ = self.ranking([(b, a) for a, b in reversed(pairs)])
        assert [e.pair() for e in backward] == [e.pair() for e in forward]


class TestEntry:
    def test_pair_canonical(self):
        e = SensitivityEntry("Lb", "La", 3.0, 1e6)
        assert e.pair() == ("La", "Lb")
