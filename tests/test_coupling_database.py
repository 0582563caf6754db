"""Unit tests for the coupling database cache."""

import pytest

from repro.components import CeramicCapacitor, FilmCapacitorX2
from repro.coupling import CouplingDatabase, pair_coupling_factor
from repro.coupling.database import solve_couplings
from repro.geometry import Placement2D
from repro.obs import Tracer, set_tracer


class TestCaching:
    def test_cache_hit_on_repeat(self, x2_cap):
        db = CouplingDatabase()
        other = FilmCapacitorX2()
        pa, pb = Placement2D.at(0, 0), Placement2D.at(0.03, 0)
        r1 = db.coupling(x2_cap, pa, other, pb)
        r2 = db.coupling(x2_cap, pa, other, pb)
        assert r1 is r2
        assert db.hits == 1
        assert db.misses == 1

    def test_relative_pose_invariance_hits_cache(self, x2_cap):
        db = CouplingDatabase()
        other = FilmCapacitorX2()
        db.coupling(x2_cap, Placement2D.at(0, 0), other, Placement2D.at(0.03, 0))
        # Same relative pose, different absolute location.
        db.coupling(
            x2_cap, Placement2D.at(0.01, 0.01), other, Placement2D.at(0.04, 0.01)
        )
        assert db.hits == 1

    def test_swapped_operands_are_their_own_key(self, x2_cap):
        db = CouplingDatabase()
        other = FilmCapacitorX2()
        pa, pb = Placement2D.at(0, 0), Placement2D.at(0.03, 0)
        db.coupling(x2_cap, pa, other, pb)
        db.coupling(other, pb, x2_cap, pa)
        assert (db.hits, db.misses) == (0, 2)

    def test_different_pose_misses(self, x2_cap):
        db = CouplingDatabase()
        other = FilmCapacitorX2()
        db.coupling(x2_cap, Placement2D.at(0, 0), other, Placement2D.at(0.03, 0))
        db.coupling(x2_cap, Placement2D.at(0, 0), other, Placement2D.at(0.05, 0))
        assert db.misses == 2

    def test_clear(self, x2_cap):
        db = CouplingDatabase()
        other = FilmCapacitorX2()
        db.coupling(x2_cap, Placement2D.at(0, 0), other, Placement2D.at(0.03, 0))
        db.clear()
        assert db.cache_size() == 0
        assert db.misses == 0


class TestPairwise:
    def test_all_pairs_count(self, x2_cap):
        db = CouplingDatabase()
        placed = [
            ("C1", x2_cap, Placement2D.at(0, 0)),
            ("C2", FilmCapacitorX2(), Placement2D.at(0.03, 0)),
            ("C3", FilmCapacitorX2(), Placement2D.at(0, 0.03)),
        ]
        results = db.pairwise_couplings(placed)
        assert len(results) == 3
        assert all(a < b for a, b in results)

    def test_self_inductances_follow_the_key(self):
        from repro.components import large_bobbin_choke, small_bobbin_choke

        large, small = large_bobbin_choke(), small_bobbin_choke()
        at_large, at_small = Placement2D.at(0, 0), Placement2D.at(0.04, 0)
        db = CouplingDatabase()
        results = db.pairwise_couplings([("L2", large, at_large), ("L1", small, at_small)])
        got = results[("L1", "L2")]
        solved = db.coupling(large, at_large, small, at_small)
        assert db.misses == 1  # the pair was solved once, in list order
        assert (got.self_a_h, got.self_b_h) == (solved.self_b_h, solved.self_a_h)
        assert (got.k, got.mutual_h, got.shielded) == (solved.k, solved.mutual_h, solved.shielded)
        # The small choke's self-inductance, as a solve in key order gives it.
        in_key_order = db.coupling(small, at_small, large, at_large)
        assert got.self_a_h < got.self_b_h
        assert got.self_a_h == pytest.approx(in_key_order.self_a_h, rel=1e-12)
        assert got.self_b_h == pytest.approx(in_key_order.self_b_h, rel=1e-12)

    def test_values_match_direct_computation(self, x2_cap):
        db = CouplingDatabase()
        other = FilmCapacitorX2()
        pa, pb = Placement2D.at(0, 0), Placement2D.at(0.035, 0.005, 45)
        res = db.coupling(x2_cap, pa, other, pb)
        direct = pair_coupling_factor(x2_cap, pa, other, pb)
        assert res.k == pytest.approx(direct, rel=1e-9)

    def test_ground_plane_respected(self, x2_cap):
        free_db = CouplingDatabase()
        shielded_db = CouplingDatabase(ground_plane_z=-0.5e-3)
        other = FilmCapacitorX2()
        pa, pb = Placement2D.at(0, 0), Placement2D.at(0.03, 0)
        k_free = abs(free_db.coupling(x2_cap, pa, other, pb).k)
        k_shld = abs(shielded_db.coupling(x2_cap, pa, other, pb).k)
        assert k_shld != pytest.approx(k_free, rel=0.05)
        assert shielded_db.coupling(x2_cap, pa, other, pb).shielded


class TestResultValidation:
    """|k| <= 1 is enforced at insertion (rule CPL001, see docs/CHECKS.md)."""

    def _doctored(self, monkeypatch, k: float):
        from repro.coupling import database as database_module
        from repro.coupling.pair import CouplingResult

        def fake(pairs, ground_plane_z):
            return [
                CouplingResult(k=k, mutual_h=1e-9, self_a_h=1e-8, self_b_h=1e-8, shielded=False)
                for _ in pairs
            ]

        monkeypatch.setattr(database_module, "component_couplings", fake)

    def test_marginal_overshoot_is_clamped(self, x2_cap, monkeypatch):
        self._doctored(monkeypatch, 1.005)
        db = CouplingDatabase()
        res = db.coupling(x2_cap, Placement2D.at(0, 0), x2_cap, Placement2D.at(0.03, 0))
        assert res.k == 1.0

    def test_negative_overshoot_clamps_to_minus_one(self, x2_cap, monkeypatch):
        self._doctored(monkeypatch, -1.01)
        db = CouplingDatabase()
        res = db.coupling(x2_cap, Placement2D.at(0, 0), x2_cap, Placement2D.at(0.03, 0))
        assert res.k == -1.0

    def test_gross_violation_is_rejected(self, x2_cap, monkeypatch):
        self._doctored(monkeypatch, 1.2)
        db = CouplingDatabase()
        with pytest.raises(ValueError, match=r"CPL001") as excinfo:
            db.coupling(x2_cap, Placement2D.at(0, 0), x2_cap, Placement2D.at(0.03, 0))
        assert "1.2" in str(excinfo.value)
        assert db.cache_size() == 0  # nothing poisoned the cache

    def test_coincident_parts_are_rejected_on_a_real_solve(self):
        # Two identical MLCCs at one pose: the raw solver k is ~3.4e8.
        db = CouplingDatabase()
        pose = Placement2D.at(0.02, 0.01, 30)
        with pytest.raises(ValueError, match=r"CPL001"):
            db.coupling(CeramicCapacitor(), pose, CeramicCapacitor(), pose)
        assert db.cache_size() == 0

    def test_physical_results_pass_through(self, x2_cap):
        db = CouplingDatabase()
        res = db.coupling(
            x2_cap, Placement2D.at(0, 0), FilmCapacitorX2(), Placement2D.at(0.03, 0)
        )
        assert abs(res.k) <= 1.0
        assert db.cache_size() == 1


class TestFieldSolveSpan:
    """``coupling.field_solve``: one span entry per solved batch, none for a hit."""

    def _pairs(self, n: int):
        cap = FilmCapacitorX2()
        origin = Placement2D.at(0, 0)
        return [
            (cap, origin, FilmCapacitorX2(), Placement2D.at(0.03 + 0.005 * i, 0.002 * i, 15 * i))
            for i in range(n)
        ]

    def _traced(self, fn):
        tracer = Tracer()
        previous = set_tracer(tracer)
        try:
            fn()
        finally:
            set_tracer(previous)
        return tracer

    def test_one_entry_per_batch(self):
        pairs = self._pairs(5)
        tracer = self._traced(lambda: solve_couplings(pairs, None))
        span = tracer.root.find("coupling.field_solve")
        assert span is not None and span.count == 1

    def test_cache_hits_open_no_field_solve(self):
        db = CouplingDatabase()
        pairs = self._pairs(4)
        tracer = self._traced(lambda: (db.lookup(pairs, None), db.lookup(pairs, None)))
        assert db.hits == len(pairs)
        assert tracer.report().totals()["coupling.cache_misses"] == len(pairs)
        assert tracer.root.find("coupling.field_solve").count == 1
