"""Parallel/persistent coupling engine against the serial ground truth.

The executor's contract is *bitwise* identity — the same pure function on
the same inputs in every mode — so every comparison here is exact
equality, which trivially satisfies the documented 1e-12 bound.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.components import FilmCapacitorX2, small_bobbin_choke
from repro.coupling import CouplingDatabase, distance_sweep, rotation_sweep
from repro.geometry import Placement2D
from repro.obs import Tracer, set_tracer
from repro.parallel import CouplingExecutor, PersistentCouplingCache


@pytest.fixture(scope="module")
def executor():
    ex = CouplingExecutor(workers=2)
    yield ex
    ex.close()


def _component(kind: str):
    return FilmCapacitorX2() if kind == "cap" else small_bobbin_choke()


class TestParallelMatchesSerial:
    @settings(max_examples=5, deadline=None)
    @given(
        kind_a=st.sampled_from(["cap", "coil"]),
        kind_b=st.sampled_from(["cap", "coil"]),
        d0_mm=st.floats(min_value=25.0, max_value=60.0),
        rot_b=st.floats(min_value=0.0, max_value=360.0),
        direction=st.floats(min_value=0.0, max_value=360.0),
    )
    def test_distance_sweep_property(
        self, executor, kind_a, kind_b, d0_mm, rot_b, direction
    ):
        comp_a, comp_b = _component(kind_a), _component(kind_b)
        distances = np.linspace(d0_mm * 1e-3, d0_mm * 1e-3 + 0.05, 5)
        serial = distance_sweep(
            comp_a, comp_b, distances, rotation_b_deg=rot_b, direction_deg=direction
        )
        parallel = distance_sweep(
            comp_a,
            comp_b,
            distances,
            rotation_b_deg=rot_b,
            direction_deg=direction,
            executor=executor,
        )
        assert np.array_equal(serial, parallel)

    def test_rotation_sweep_signed_match(self, executor):
        comp_a, comp_b = small_bobbin_choke(), small_bobbin_choke()
        angles = np.linspace(0.0, 330.0, 12)
        serial = rotation_sweep(comp_a, comp_b, 0.04, angles)
        parallel = rotation_sweep(comp_a, comp_b, 0.04, angles, executor=executor)
        assert np.array_equal(serial, parallel)

    def test_pairwise_couplings_match_and_order(self, executor):
        placed = [
            ("C1", FilmCapacitorX2(), Placement2D.at(0.0, 0.0, 0.0)),
            ("L1", small_bobbin_choke(), Placement2D.at(0.03, 0.0, 30.0)),
            ("C2", FilmCapacitorX2(), Placement2D.at(0.01, 0.04, 90.0)),
            ("L2", small_bobbin_choke(), Placement2D.at(0.05, 0.03, 200.0)),
        ]
        serial = CouplingDatabase().pairwise_couplings(placed)
        parallel = CouplingDatabase().pairwise_couplings(placed, executor=executor)
        assert list(serial) == list(parallel)
        for pair in serial:
            assert serial[pair].k == parallel[pair].k
            assert serial[pair].mutual_h == parallel[pair].mutual_h


class TestPersistentDatabase:
    def test_round_trip_across_instances(self, tmp_path, executor):
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

    def test_mirrored_pair_hits_persistent(self, tmp_path):
        comp_a, comp_b = FilmCapacitorX2(), small_bobbin_choke()
        pa, pb = Placement2D.at(0.0, 0.0, 0.0), Placement2D.at(0.04, 0.0, 60.0)
        db = CouplingDatabase(persistent=PersistentCouplingCache(cache_dir=tmp_path))
        result = db.coupling(comp_a, pa, comp_b, pb)

        swapped = CouplingDatabase(
            persistent=PersistentCouplingCache(cache_dir=tmp_path)
        )
        mirrored = swapped.coupling(comp_b, pb, comp_a, pa)
        assert swapped.misses == 0
        assert mirrored.k == result.k
        assert swapped.persistent_hits == 1
        assert (mirrored.self_a_h, mirrored.self_b_h) == (
            result.self_b_h,
            result.self_a_h,
        )
