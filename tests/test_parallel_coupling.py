"""Persistent coupling cache tier against the in-memory ground truth.

A disk hit must reproduce the solve it stored *bitwise*, so every
comparison here is exact equality.
"""

import numpy as np

from repro.components import FilmCapacitorX2, small_bobbin_choke
from repro.coupling import CouplingDatabase, distance_sweep
from repro.geometry import Placement2D
from repro.obs import Tracer, set_tracer
from repro.parallel import PersistentCouplingCache


class TestPersistentDatabase:
    def test_round_trip_across_instances(self, tmp_path):
        comp_a, comp_b = FilmCapacitorX2(), small_bobbin_choke()
        distances = np.linspace(0.03, 0.08, 4)

        cold = CouplingDatabase(persistent=PersistentCouplingCache(cache_dir=tmp_path))
        tracer = Tracer()
        previous = set_tracer(tracer)
        try:
            k_cold = distance_sweep(comp_a, comp_b, distances, database=cold)
        finally:
            set_tracer(previous)
        assert cold.stats.misses == len(distances)
        assert tracer.report().totals()["cache.write"] == len(distances)

        # A fresh process would build fresh objects: new instances, new db.
        warm = CouplingDatabase(persistent=PersistentCouplingCache(cache_dir=tmp_path))
        k_warm = distance_sweep(
            FilmCapacitorX2(), small_bobbin_choke(), distances, database=warm
        )
        assert np.array_equal(k_cold, k_warm)
        assert warm.stats.misses == 0
        assert warm.stats.persistent_hits == len(distances)

    def test_geometry_perturbation_misses(self, tmp_path):
        distances = np.linspace(0.03, 0.08, 4)
        db = CouplingDatabase(persistent=PersistentCouplingCache(cache_dir=tmp_path))
        distance_sweep(FilmCapacitorX2(), small_bobbin_choke(), distances, database=db)

        perturbed = FilmCapacitorX2(loop_height=FilmCapacitorX2().loop_height * 1.01)
        db2 = CouplingDatabase(persistent=PersistentCouplingCache(cache_dir=tmp_path))
        distance_sweep(perturbed, small_bobbin_choke(), distances, database=db2)
        assert db2.stats.persistent_hits == 0
        assert db2.stats.misses == len(distances)

    def test_version_bump_stales_the_store(self, tmp_path):
        distances = np.linspace(0.03, 0.08, 4)
        db = CouplingDatabase(
            persistent=PersistentCouplingCache(cache_dir=tmp_path, version=1)
        )
        distance_sweep(FilmCapacitorX2(), small_bobbin_choke(), distances, database=db)

        bumped = CouplingDatabase(
            persistent=PersistentCouplingCache(cache_dir=tmp_path, version=2)
        )
        distance_sweep(
            FilmCapacitorX2(), small_bobbin_choke(), distances, database=bumped
        )
        assert bumped.stats.persistent_hits == 0
        assert bumped.stats.misses == len(distances)

    def test_reversed_pair_misses_persistent(self, tmp_path):
        comp_a, comp_b = FilmCapacitorX2(), small_bobbin_choke()
        pa, pb = Placement2D.at(0.0, 0.0, 0.0), Placement2D.at(0.04, 0.0, 60.0)
        db = CouplingDatabase(persistent=PersistentCouplingCache(cache_dir=tmp_path))
        db.coupling(comp_a, pa, comp_b, pb)

        swapped = CouplingDatabase(
            persistent=PersistentCouplingCache(cache_dir=tmp_path)
        )
        reversed_result = swapped.coupling(comp_b, pb, comp_a, pa)
        assert (swapped.persistent_hits, swapped.misses) == (0, 1)
        assert reversed_result == CouplingDatabase().coupling(comp_b, pb, comp_a, pa)
