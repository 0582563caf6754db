"""One coupling-cache key for both tiers, and one lookup path.

Each regression below pins a case where the in-memory key used to answer
a different coupling problem than the one asked; every cached answer is
compared against a fresh field solve or a fresh sweep.
"""

import math
import tempfile

import numpy as np
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.components import (
    CeramicCapacitor,
    FilmCapacitorX2,
    large_bobbin_choke,
    small_bobbin_choke,
)
from repro.core import EmiDesignFlow
from repro.coupling import CouplingDatabase, component_coupling, distance_sweep
from repro.geometry import Placement2D, Vec2
from repro.obs import Tracer, set_tracer
from repro.parallel import PersistentCouplingCache


def outcome(lookup, *args):
    """A lookup's result, or the text of the CPL001 error it raised."""
    try:
        return lookup(*args)
    except ValueError as err:
        assert "CPL001" in str(err)
        return str(err)


class TestKeyRegressions:
    def test_standoff_is_part_of_the_key(self):
        a, b = small_bobbin_choke(), small_bobbin_choke()
        pa, flat = Placement2D.at(0.0, 0.0), Placement2D.at(0.03, 0.0)
        raised = Placement2D(flat.position, flat.rotation_rad, z_offset=0.01)
        db = CouplingDatabase()
        db.coupling(a, pa, b, flat)
        assert db.coupling(a, pa, b, raised) == component_coupling(a, pa, b, raised)
        assert db.misses == 2

    def test_reversed_request_reports_its_own_self_inductance(self):
        small, large = small_bobbin_choke(), large_bobbin_choke()
        pa, pb = Placement2D.at(0.0, 0.0), Placement2D.at(0.04, 0.0)
        db = CouplingDatabase()
        db.coupling(small, pa, large, pb)
        result = db.coupling(large, pb, small, pa)
        assert db.misses == 2
        assert result == component_coupling(large, pb, small, pa)
        assert result.self_a_h == large.self_inductance

    def test_sweep_plane_is_part_of_the_key(self):
        cap, other = FilmCapacitorX2(), FilmCapacitorX2()
        distances = np.array([0.02])
        db = CouplingDatabase()
        free = distance_sweep(cap, other, distances, database=db)
        shielded = distance_sweep(
            cap, other, distances, ground_plane_z=3e-3, database=db
        )
        assert np.array_equal(
            shielded, distance_sweep(cap, other, distances, ground_plane_z=3e-3)
        )
        assert np.array_equal(free, distance_sweep(cap, other, distances))
        assert db.misses == 2
        assert db.ground_plane_z is None  # a sweep never rewrites the database

    def test_tiers_agree_on_identical_parts(self, tmp_path):
        # Two identical MLCCs whose poses relative to the X2 share one
        # 0.1 mm bucket: both tiers answer the second with the first.
        x2, mlcc_1, mlcc_2 = FilmCapacitorX2(), CeramicCapacitor(), CeramicCapacitor()
        origin = Placement2D.at(0.0, 0.0)
        first, second = Placement2D.at(0.02, 0.0), Placement2D.at(0.02004, 0.00004)

        def run(db):
            db.coupling(x2, origin, mlcc_1, first)
            return db.coupling(x2, origin, mlcc_2, second)

        memory = run(CouplingDatabase())
        disk = run(CouplingDatabase(persistent=PersistentCouplingCache(tmp_path)))
        assert memory == disk == component_coupling(x2, origin, mlcc_1, first)


PARTS = {
    "x2": FilmCapacitorX2,
    "mlcc": CeramicCapacitor,
    "bobbin": small_bobbin_choke,
}

poses = st.builds(
    lambda x, y, rot, z, side: Placement2D(
        Vec2(x, y), math.radians(rot), z_offset=z, side=side
    ),
    st.floats(-0.04, 0.04),
    st.floats(-0.04, 0.04),
    st.floats(0.0, 360.0),
    st.sampled_from([0.0, 0.002, 0.01]),
    st.sampled_from([1, -1]),
)
planes = st.one_of(st.none(), st.floats(-3e-3, -0.2e-3))


class TestLookupProperties:
    @settings(max_examples=25, deadline=None)
    @given(
        kind_a=st.sampled_from(sorted(PARTS)),
        kind_b=st.sampled_from(sorted(PARTS)),
        pa=poses,
        pb=poses,
        plane=planes,
    )
    def test_cached_lookup_equals_first_fresh_solve(
        self, kind_a, kind_b, pa, pb, plane
    ):
        assume((pb.position - pa.position).norm() > 0.015)
        a, b = PARTS[kind_a](), PARTS[kind_b]()
        fresh = component_coupling(a, pa, b, pb, plane)
        reverse = component_coupling(b, pb, a, pa, plane)
        assume(abs(fresh.k) <= 1.0 and abs(reverse.k) <= 1.0)
        db = CouplingDatabase(ground_plane_z=plane)
        assert db.coupling(a, pa, b, pb) == fresh
        assert db.coupling(a, pa, b, pb) == fresh
        # The reversed request is its own problem; M_ab = M_ba holds to
        # quadrature rounding (a k below 1e-12 is numerically zero).
        assert db.coupling(b, pb, a, pa) == reverse
        assert (db.hits, db.misses) == (1, 2)
        assert math.isclose(reverse.k, fresh.k, rel_tol=1e-9, abs_tol=1e-12)

    @settings(max_examples=20, deadline=None)
    @given(
        calls=st.lists(
            st.tuples(
                st.sampled_from([(0, 1), (0, 2), (1, 0), (2, 0), (1, 2), (3, 1)]),
                st.sampled_from([0.0, 3e-5, 0.005]),
                st.sampled_from([0.0, 0.3, 90.0]),
                st.sampled_from([0.0, 0.002]),
            ),
            min_size=1,
            max_size=5,
        ),
        plane=planes,
    )
    def test_memory_and_persistent_tiers_agree(self, calls, plane):
        # Parts 1 and 2 are identical MLCCs, so their keys collide.  Two
        # calls may place identical parts at one pose; both tiers must then
        # reject the pair with the same CPL001 error.
        parts = [FilmCapacitorX2(), CeramicCapacitor(), CeramicCapacitor(), small_bobbin_choke()]
        origin = Placement2D.at(0.0, 0.0)
        pairs = [pair for pair, *_ in calls]
        poses = [
            Placement2D(Vec2(0.02 + dx, dx), math.radians(rot), z_offset=z)
            for _, dx, rot, z in calls
        ]
        placed = [("A", parts[0], origin)] + [
            (f"P{i}", parts[ib], pose) for i, ((_, ib), pose) in enumerate(zip(pairs, poses))
        ]
        memory = CouplingDatabase(ground_plane_z=plane)
        with tempfile.TemporaryDirectory() as cache_dir:
            disk = CouplingDatabase(
                ground_plane_z=plane, persistent=PersistentCouplingCache(cache_dir)
            )
            for (ia, ib), pose in zip(pairs, poses):
                assert outcome(memory.coupling, parts[ia], origin, parts[ib], pose) == (
                    outcome(disk.coupling, parts[ia], origin, parts[ib], pose)
                )
            assert outcome(memory.pairwise_couplings, placed) == (
                outcome(disk.pairwise_couplings, placed)
            )
        assert (memory.hits, memory.misses) == (disk.hits, disk.misses)


class TestFlowCacheAccounting:
    def test_cache_dir_changes_no_output_and_counts_agree(
        self, tmp_path, design_flow, layout_comparison
    ):
        reference = {
            name: (ev.couplings, ev.worst_margin_db)
            for name, ev in layout_comparison.items()
        }
        for run in ("cold", "warm"):
            tracer = Tracer()
            previous = set_tracer(tracer)
            try:
                flow = EmiDesignFlow(design_flow.design, cache_dir=tmp_path)
                rules = flow.derive_rules()
                layouts = flow.compare_layouts()
            finally:
                set_tracer(previous)
            assert rules == design_flow.derive_rules(), run
            assert {
                name: (ev.couplings, ev.worst_margin_db) for name, ev in layouts.items()
            } == reference, run
            totals = tracer.report().totals()
            stats = flow.coupling_stats
            assert stats.hits == totals.get("coupling.cache_hits", 0), run
            assert stats.misses == totals.get("coupling.cache_misses", 0), run
            disk = {kind: totals.get(f"cache.{kind}", 0) for kind in ("miss", "stale", "write")}
            if run == "cold":
                # One read per lookup: every disk miss is solved and written once.
                assert disk["miss"] == disk["write"] > 0, disk
            else:
                assert disk["miss"] == disk["stale"] == 0, disk
        assert stats.misses == 0 and stats.persistent_hits > 0
