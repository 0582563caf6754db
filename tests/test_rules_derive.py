"""Unit tests for PEMD derivation from coupling sweeps."""

import pytest

from repro.components import FilmCapacitorX2, small_bobbin_choke
from repro.coupling import distance_sweep
from repro.obs import Tracer, set_tracer
from repro.rules import derive_pemd, derive_rule_set
from repro.sensitivity import SensitivityEntry

import numpy as np


class TestDerivePemd:
    def test_cap_pair_pemd_plausible(self, x2_cap):
        derivation = derive_pemd(x2_cap, FilmCapacitorX2(), k_threshold=0.01)
        # Two 1.5 uF X-caps need a couple of centimetres (paper Fig. 5 scale).
        assert 0.015 < derivation.pemd < 0.06
        assert derivation.fit.r_squared > 0.95

    def test_smaller_threshold_larger_pemd(self, x2_cap):
        other = FilmCapacitorX2()
        loose = derive_pemd(x2_cap, other, k_threshold=0.05)
        tight = derive_pemd(x2_cap, other, k_threshold=0.005)
        assert tight.pemd > loose.pemd

    def test_threshold_actually_enforced(self, x2_cap):
        other = FilmCapacitorX2()
        derivation = derive_pemd(x2_cap, other, k_threshold=0.01)
        # Coupling measured at the derived PEMD (parallel axes, along the
        # common axis) must be at the threshold.
        k = distance_sweep(
            x2_cap,
            other,
            np.array([derivation.pemd]),
            rotation_b_deg=0.0,
            direction_deg=-90.0,
        )[0]
        assert k == pytest.approx(0.01, rel=0.25)

    def test_perpendicular_residual_for_cap_pair(self, x2_cap):
        derivation = derive_pemd(x2_cap, FilmCapacitorX2(), k_threshold=0.01)
        # At the worst-case oblique direction the perpendicular coupling is
        # nearly as strong as parallel: the residual must be large.
        assert derivation.residual > 0.7
        assert derivation.pemd_perp <= derivation.pemd

    def test_mixed_pair_axes_aligned(self, x2_cap):
        # Cap (axis -y) vs choke (axis +x): the parallel-axes sweep must
        # rotate the choke, otherwise every sample is zero.
        derivation = derive_pemd(x2_cap, small_bobbin_choke(), k_threshold=0.01)
        assert derivation.pemd > 0.01

    def test_invalid_threshold(self, x2_cap):
        with pytest.raises(ValueError):
            derive_pemd(x2_cap, FilmCapacitorX2(), k_threshold=0.0)


class TestDeriveRuleSet:
    def test_maps_inductors_to_refdes(self, x2_cap):
        parts = {"C1": x2_cap, "C2": FilmCapacitorX2()}
        relevant = [SensitivityEntry("C1.ESL", "C2.ESL", 10.0, 1e6)]
        owner = {"C1.ESL": "C1", "C2.ESL": "C2"}
        rules = derive_rule_set(parts, relevant, owner, k_threshold_db_map=0.01)
        assert len(rules) == 1
        assert rules[0].pair() == ("C1", "C2")
        assert rules[0].source == "fit"

    def test_skips_unmapped_and_self_pairs(self, x2_cap):
        parts = {"C1": x2_cap}
        relevant = [
            SensitivityEntry("C1.ESL", "UNKNOWN", 10.0, 1e6),
            SensitivityEntry("C1.ESL", "C1.trace", 8.0, 1e6),
        ]
        owner = {"C1.ESL": "C1", "C1.trace": "C1"}
        rules = derive_rule_set(parts, relevant, owner)
        assert rules == []

    def test_same_part_number_with_other_geometry_gets_its_own_pemd(self, x2_cap):
        # C3 shares C2's part number but not its loop: its rule must come
        # from its own geometry, not from the C1-C2 derivation.
        parts = {
            "C1": x2_cap,
            "C2": FilmCapacitorX2(),
            "C3": FilmCapacitorX2(loop_span=30e-3, loop_height=20e-3),
        }
        assert parts["C3"].part_number == parts["C2"].part_number
        relevant = [
            SensitivityEntry("C1.ESL", "C2.ESL", 10.0, 1e6),
            SensitivityEntry("C2.ESL", "C3.ESL", 9.0, 1e6),
        ]
        owner = {"C1.ESL": "C1", "C2.ESL": "C2", "C3.ESL": "C3"}
        rules = derive_rule_set(parts, relevant, owner, k_threshold_db_map=0.01)
        for rule in rules:
            direct = derive_pemd(parts[rule.ref_a], parts[rule.ref_b], 0.01)
            assert rule.pemd == direct.pemd and rule.residual == direct.residual
        assert rules[1].pemd > rules[0].pemd * 1.2

    def test_identical_parts_are_served_by_no_further_fits(self, x2_cap):
        parts = {
            "C1": x2_cap,
            "C2": FilmCapacitorX2(),
            "C3": FilmCapacitorX2(),
        }
        relevant = [
            SensitivityEntry("C1.ESL", "C2.ESL", 10.0, 1e6),
            SensitivityEntry("C1.ESL", "C3.ESL", 9.0, 1e6),
        ]
        owner = {"C1.ESL": "C1", "C2.ESL": "C2", "C3.ESL": "C3"}
        tracer = Tracer()
        previous = set_tracer(tracer)
        try:
            rules = derive_rule_set(parts, relevant, owner)
        finally:
            set_tracer(previous)
        totals = tracer.report().totals()
        # The first pair fits its parallel and perpendicular laws; the
        # second pair of the same geometry reads both from memory.
        assert totals["coupling.law_fits"] == 2
        assert totals["coupling.law_hits"] == 2
        assert rules[0].pemd == rules[1].pemd

    def test_duplicate_pairs_deduplicated(self, x2_cap):
        parts = {"C1": x2_cap, "C2": FilmCapacitorX2()}
        relevant = [
            SensitivityEntry("C1.ESL", "C2.ESL", 10.0, 1e6),
            SensitivityEntry("C2.ESL", "C1.ESL", 9.0, 2e6),
        ]
        owner = {"C1.ESL": "C1", "C2.ESL": "C2"}
        rules = derive_rule_set(parts, relevant, owner)
        assert len(rules) == 1
