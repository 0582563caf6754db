"""Fitted distance laws behind the coupling-cache tiers.

A distance sweep's power-law fit depends on the two parts, the sweep
grid, the pose and the plane, never on the threshold a PEMD later
inverts it at.  :meth:`CouplingDatabase.distance_law` therefore serves
it from memory or disk like a pair coupling.  Every check here is a work
counter or an exact (``float.hex``) equality.
"""

import math
import random

import numpy as np
import pytest

from repro.cli import main
from repro.components import BobbinChoke, CeramicCapacitor, FilmCapacitorX2, small_bobbin_choke
from repro.converters import BuckConverterDesign
from repro.core import EmiDesignFlow
from repro.coupling import CouplingDatabase, DistanceLaw
from repro.obs import Tracer, set_tracer
from repro.parallel import PersistentCouplingCache, cache_name, law_key
from repro.rules import derive_pemd

GRID = np.geomspace(0.02, 0.12, 7)


def traced(fn, *args, **kwargs):
    """``fn(*args, **kwargs)`` and the tracer counter totals it produced."""
    tracer = Tracer()
    previous = set_tracer(tracer)
    try:
        result = fn(*args, **kwargs)
    finally:
        set_tracer(previous)
    return result, tracer.report().totals()


def fits(totals):
    return totals.get("coupling.law_fits", 0)


def disk_db(cache_dir):
    return CouplingDatabase(persistent=PersistentCouplingCache(cache_dir=cache_dir))


def exact(rules):
    """Rules as exactly comparable tuples (``float.hex`` of every float)."""
    return [(r.ref_a, r.ref_b, r.pemd.hex(), r.residual.hex()) for r in rules]


def random_part(rng):
    kind = rng.randrange(3)
    if kind == 0:
        return BobbinChoke(
            part_number="BOBBIN",
            coil_radius=rng.uniform(2.5e-3, 4.5e-3),
            orientation=rng.choice(("horizontal", "vertical")),
        )
    if kind == 1:
        return FilmCapacitorX2(
            loop_span=rng.uniform(10e-3, 30e-3), loop_height=rng.uniform(8e-3, 20e-3)
        )
    return CeramicCapacitor(part_number="MLCC")


class TestTiersAgree:
    def test_buck_rules_cold_warm_and_memory_only_are_bit_identical(
        self, tmp_path, design_flow
    ):
        def rules():
            flow = EmiDesignFlow(BuckConverterDesign(), cache_dir=tmp_path)
            flow.run_sensitivity()
            return flow.derive_rules()

        cold, cold_totals = traced(rules)
        warm, warm_totals = traced(rules)
        assert exact(cold) == exact(warm) == exact(design_flow.derive_rules())
        assert fits(cold_totals) > 0
        # A warm rules stage runs no sweep probe and no curve fit.
        assert fits(warm_totals) == 0
        assert warm_totals.get("coupling.sweep_points", 0) == 0
        assert warm_totals["coupling.law_hits"] == 2 * len(warm)

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_random_pairs_cold_warm_and_memory_only_are_bit_identical(self, tmp_path, seed):
        rng = random.Random(seed)
        for i in range(3):
            part_a, part_b = random_part(rng), random_part(rng)
            k = rng.uniform(0.005, 0.03)
            plane = rng.choice((None, -rng.uniform(1e-3, 5e-3)))
            derivations = [derive_pemd(part_a, part_b, k, ground_plane_z=plane)]
            for run in ("cold", "warm"):
                derivation, totals = traced(
                    derive_pemd, part_a, part_b, k, ground_plane_z=plane,
                    database=disk_db(tmp_path / str(i)),
                )
                assert fits(totals) == (2 if run == "cold" else 0), run
                derivations.append(derivation)
            assert len({(d.pemd.hex(), d.residual.hex()) for d in derivations}) == 1
            assert len({d.fit for d in derivations}) == 1


class TestThresholdIndependence:
    def test_two_thresholds_share_one_law(self):
        db = CouplingDatabase()
        cap, choke = FilmCapacitorX2(), small_bobbin_choke()
        loose, totals = traced(derive_pemd, cap, choke, 0.02, database=db)
        assert fits(totals) == 2
        tight, totals = traced(derive_pemd, cap, choke, 0.005, database=db)
        assert fits(totals) == 0 and totals["coupling.law_hits"] == 2
        assert totals.get("coupling.sweep_points", 0) == 0
        assert tight.fit == loose.fit
        assert tight.pemd > loose.pemd

    def test_missing_parallel_fit_raises(self, monkeypatch):
        db = CouplingDatabase()
        monkeypatch.setattr(db, "distance_law", lambda *args: DistanceLaw(None, 0.0))
        with pytest.raises(ValueError, match="at least 3 positive data points"):
            derive_pemd(FilmCapacitorX2(), FilmCapacitorX2(), 0.01, database=db)


class TestPersistentTier:
    def law(self, db):
        return db.distance_law(FilmCapacitorX2(), FilmCapacitorX2(), GRID, 0.0, -90.0, None)

    def disk_name(self):
        part = FilmCapacitorX2()
        return cache_name("law", law_key(part, part, GRID, 0.0, -90.0, None, 8))

    def test_stored_law_reads_back_bit_identical(self, tmp_path):
        fitted, totals = traced(self.law, disk_db(tmp_path))
        assert fits(totals) == 1 and totals["cache.write"] == len(GRID) + 1  # pairs + law
        assert PersistentCouplingCache(cache_dir=tmp_path).get(self.disk_name(), dict) is not None
        db = disk_db(tmp_path)
        read, totals = traced(self.law, db)
        assert fits(totals) == 0 and totals["cache.hit"] == 1
        assert read == fitted == self.law(CouplingDatabase())
        assert (db.stats.law_hits, db.stats.persistent_hits, db.stats.law_fits) == (1, 1, 0)

    @pytest.mark.parametrize(
        "payload",
        [
            {},
            {"c": "x", "n": 3.0, "r2": 1.0, "peak_k": 0.1},
            {"c": 1e-6, "n": 3.0, "r2": 1.0, "peak_k": -0.1},
            {"c": 1e-6, "n": 3.0, "r2": 1.0, "peak_k": None},
            {"c": 1e-6, "n": 3.0, "peak_k": 0.1},
            {"c": 1e-6, "n": 0.0, "r2": 1.0, "peak_k": 0.1},
            {"c": 0.0, "n": 3.0, "r2": 1.0, "peak_k": 0.1},
            {"c": -1e-6, "n": 3.0, "r2": 1.0, "peak_k": 0.1},
            {"c": float("nan"), "n": 3.0, "r2": 1.0, "peak_k": 0.1},
            {"c": 1e-6, "n": float("nan"), "r2": 1.0, "peak_k": 0.1},
            {"c": 1e-6, "n": float("inf"), "r2": 1.0, "peak_k": 0.1},
            {"c": 1e-6, "n": 3.0, "r2": float("nan"), "peak_k": 0.1},
        ],
    )
    def test_malformed_payload_counts_stale_and_refits(self, tmp_path, payload):
        PersistentCouplingCache(cache_dir=tmp_path).put(self.disk_name(), payload)
        law, totals = traced(self.law, disk_db(tmp_path))
        assert totals["cache.stale"] == 1 and fits(totals) == 1
        assert totals.get("cache.hit", 0) == 0
        assert law == self.law(CouplingDatabase())
        # The refit was written through: the next reader hits.
        _, totals = traced(self.law, disk_db(tmp_path))
        assert fits(totals) == 0 and totals["cache.hit"] == 1

    def test_a_law_without_fit_round_trips(self, tmp_path):
        PersistentCouplingCache(cache_dir=tmp_path).put(
            self.disk_name(), {"c": None, "n": None, "r2": None, "peak_k": 0.0}
        )
        law, totals = traced(self.law, disk_db(tmp_path))
        assert law == DistanceLaw(None, 0.0) and fits(totals) == 0

    def test_gc_and_clear_evict_law_entries(self, tmp_path, capsys):
        def derive(db):
            return derive_pemd(FilmCapacitorX2(), small_bobbin_choke(), 0.01, database=db)

        reference = derive(CouplingDatabase())
        derive(disk_db(tmp_path))
        assert main(["cache", "gc", "--cache-dir", str(tmp_path), "--max-size-mb", "0"]) == 0
        assert "kept 0" in capsys.readouterr().out
        again, totals = traced(derive, disk_db(tmp_path))
        assert fits(totals) == 2 and again == reference

        assert PersistentCouplingCache(cache_dir=tmp_path).clear() > 0
        _, totals = traced(derive, disk_db(tmp_path))
        assert fits(totals) == 2

    def test_clear_drops_the_memory_tier(self):
        db = CouplingDatabase()
        self.law(db)
        db.clear()
        _, totals = traced(self.law, db)
        assert fits(totals) == 1 and db.stats.law_fits == 1


class TestKey:
    def test_every_input_is_part_of_the_key(self):
        cap, choke = FilmCapacitorX2(), small_bobbin_choke()
        base = law_key(cap, choke, GRID, 0.0, -90.0, None, 8)
        variants = [
            law_key(choke, cap, GRID, 0.0, -90.0, None, 8),
            law_key(cap, choke, GRID[:-1], 0.0, -90.0, None, 8),
            law_key(cap, choke, GRID * (1 + 1e-16 * 4), 0.0, -90.0, None, 8),
            law_key(cap, choke, GRID, 90.0, -90.0, None, 8),
            law_key(cap, choke, GRID, 0.0, -45.0, None, 8),
            law_key(cap, choke, GRID, 0.0, -90.0, -2e-3, 8),
            law_key(cap, choke, GRID, 0.0, -90.0, None, 12),
        ]
        names = {cache_name("law", key) for key in [base, *variants]}
        assert len(names) == len(variants) + 1
        assert cache_name("law", base) != cache_name("law", base, version=2)

    def test_negative_zero_is_zero_in_both_tiers(self):
        cap = FilmCapacitorX2()
        plus = law_key(cap, cap, GRID, 0.0, 0.0, 0.0, 8)
        minus = law_key(cap, cap, GRID, -0.0, -0.0, -0.0, 8)
        assert plus == minus and cache_name("law", plus) == cache_name("law", minus)
        assert not any(math.copysign(1.0, v) < 0 for v in minus[3:6])

    def test_own_namespace(self):
        cap = FilmCapacitorX2()
        key = law_key(cap, cap, GRID, 0.0, 0.0, None, 8)
        assert cache_name("law", key) != cache_name("pair", key)
        assert cache_name("law", key) != cache_name("self", key)
