"""Part self-inductance behind the coupling-cache tiers.

A part's air-core self-inductance is a pure function of its field
geometry, so :meth:`CouplingDatabase.self_inductance` keys it by the
part's fingerprint and serves it from memory or disk like a pair
coupling.  Every check here is a work counter or an exact equality.
"""

import hashlib
import math
import random
import struct
from dataclasses import replace

import numpy as np
import pytest
from filament_oracle import path_of, unpack

from repro.components import (
    BobbinChoke,
    CeramicCapacitor,
    CommonModeChoke,
    FilmCapacitorX2,
    default_library,
    small_bobbin_choke,
)
from repro.converters import BuckConverterDesign
from repro.core import EmiDesignFlow
from repro.coupling import CouplingDatabase
from repro.geometry import Placement2D, Vec2, Vec3
from repro.obs import Tracer, set_tracer
from repro.parallel import PersistentCouplingCache, cache_name
from repro.peec import SELF_INDUCTANCE_ORDER


def traced(fn, *args):
    """``fn(*args)`` and the tracer counter totals it produced."""
    tracer = Tracer()
    previous = set_tracer(tracer)
    try:
        result = fn(*args)
    finally:
        set_tracer(previous)
    return result, tracer.report().totals()


def evals(totals):
    return totals.get("peec.self_inductance_evals", 0)


def disk_db(cache_dir):
    return CouplingDatabase(persistent=PersistentCouplingCache(cache_dir=cache_dir))


def per_filament_fingerprint(component):
    """The fingerprint as it was first defined: filament objects, one at a time."""
    digest = hashlib.sha256()
    digest.update(b"component-v1\0" + component.part_number.encode("utf-8") + b"\0")
    digest.update(struct.pack("<2d", component.mu_eff, component.core.stray_fraction))
    for f in unpack(component.current_path.packed):
        values = (f.start.x, f.start.y, f.start.z, f.end.x, f.end.y, f.end.z)
        digest.update(struct.pack("<9d", *values, f.width, f.thickness, f.weight))
    return digest.hexdigest()


class TestFingerprint:
    def test_packed_digest_is_the_per_filament_digest(self):
        # Same bytes, so every stored pair entry keeps its name: no
        # schema bump for hashing the packed arrays.
        library = default_library()
        for name in library.part_numbers():
            part = library.create(name)
            assert part.fingerprint == per_filament_fingerprint(part), name


class TestTiers:
    def test_memory_tier_serves_an_equal_part_without_a_solve(self):
        db = CouplingDatabase()
        first, totals = traced(db.self_inductance, small_bobbin_choke())
        assert evals(totals) == 1
        part = small_bobbin_choke()
        second, totals = traced(db.self_inductance, part)
        assert evals(totals) == 0
        assert second == first
        # The part is seeded: its ESL reads the cached number, no solve.
        l_core, totals = traced(lambda: part.self_inductance)
        assert evals(totals) == 0
        assert l_core == first * part.mu_eff

    def test_persisted_value_reads_back_bit_identical(self, tmp_path):
        solved, totals = traced(disk_db(tmp_path).self_inductance, small_bobbin_choke())
        assert evals(totals) == 1 and totals["cache.write"] == 1
        part = small_bobbin_choke()
        read, totals = traced(disk_db(tmp_path).self_inductance, part)
        assert evals(totals) == 0 and totals["cache.hit"] == 1
        assert read == solved == small_bobbin_choke().geometric_inductance
        assert part.geometric_inductance == solved

    def test_one_ulp_filament_perturbation_misses(self, tmp_path):
        disk_db(tmp_path).self_inductance(FilmCapacitorX2())
        part = FilmCapacitorX2()
        first, *rest = unpack(part.current_path.packed)
        bumped = replace(
            first, start=Vec3(math.nextafter(first.start.x, math.inf), first.start.y, first.start.z)
        )
        part.__dict__["current_path"] = path_of([bumped, *rest], part.current_path.name)
        assert part.fingerprint != FilmCapacitorX2().fingerprint
        _, totals = traced(disk_db(tmp_path).self_inductance, part)
        assert evals(totals) == 1
        assert totals.get("cache.hit", 0) == 0 and totals["cache.miss"] == 1

    @pytest.mark.parametrize("payload", [{}, {"self_h": "x"}, {"self_h": -1.0}, {"self_h": None}])
    def test_malformed_payload_counts_stale_and_resolves(self, tmp_path, payload):
        part = FilmCapacitorX2()
        key = cache_name("self", (part.fingerprint, SELF_INDUCTANCE_ORDER))
        PersistentCouplingCache(cache_dir=tmp_path).put(key, payload)
        value, totals = traced(disk_db(tmp_path).self_inductance, part)
        assert totals["cache.stale"] == 1 and totals.get("cache.hit", 0) == 0
        assert evals(totals) == 1
        assert value == FilmCapacitorX2().geometric_inductance
        # The re-solve was written through: the next reader hits.
        _, totals = traced(disk_db(tmp_path).self_inductance, FilmCapacitorX2())
        assert evals(totals) == 0 and totals["cache.hit"] == 1

    def test_own_namespace_and_schema_version(self):
        key = (FilmCapacitorX2().fingerprint, SELF_INDUCTANCE_ORDER)
        name = cache_name("self", key)
        assert name != cache_name("self", key, version=2)
        assert name != cache_name("self", (key[0], SELF_INDUCTANCE_ORDER + 1))
        pair_like = (key[0], key[0], (0, 0, 0, 0, 0, 0, 0), None, SELF_INDUCTANCE_ORDER)
        assert name != cache_name("pair", pair_like)

    def test_clear_drops_the_memory_tier(self):
        db = CouplingDatabase()
        db.self_inductance(FilmCapacitorX2())
        db.clear()
        _, totals = traced(db.self_inductance, FilmCapacitorX2())
        assert evals(totals) == 1


def extract_cold_board(seed):
    """16 fresh parts shaped like a perfbench ``extract_cold`` board."""
    rng = random.Random(seed)
    parts = [CommonModeChoke(part_number="CMC01", major_radius=0.01, minor_radius=0.0035)]
    for i in range(3):
        parts.append(
            BobbinChoke(
                part_number=f"BOBBIN{i:02d}",
                coil_radius=rng.uniform(2.5e-3, 4.5e-3),
                orientation=rng.choice(("horizontal", "vertical")),
            )
        )
    parts += [FilmCapacitorX2(part_number=f"X2-{i:02d}") for i in range(4)]
    parts += [CeramicCapacitor(part_number=f"MLCC{i:02d}") for i in range(8)]
    return [
        (f"P{i:02d}", part, Placement2D(Vec2(0.03 * (i % 4), 0.03 * (i // 4)), rng.uniform(0, 6)))
        for i, part in enumerate(parts)
    ]


class TestColdStaysCold:
    def test_memory_only_database_solves_every_part(self):
        # No process-global memo: every fresh database on fresh parts
        # solves each part once, however often the board repeats.
        for _ in range(2):
            placed = extract_cold_board(seed=1)
            _, totals = traced(CouplingDatabase().pairwise_couplings, placed)
            assert evals(totals) == 16


class TestWarmFlow:
    def test_second_flow_solves_no_self_inductance(self, tmp_path, design_flow, layout_comparison):
        def run():
            flow = EmiDesignFlow(BuckConverterDesign(), cache_dir=tmp_path)
            return flow.run_sensitivity(), flow.derive_rules(), flow.compare_layouts()

        _, cold_totals = traced(run)
        assert evals(cold_totals) == len(BuckConverterDesign().parts())
        (ranking, rules, layouts), totals = traced(run)
        assert evals(totals) == 0

        # Exactly the memory-only flow's answers.
        assert ranking == design_flow.run_sensitivity()
        assert rules == design_flow.derive_rules()
        for name, reference in layout_comparison.items():
            got = layouts[name]
            assert np.array_equal(got.spectrum.freqs, reference.spectrum.freqs)
            assert np.array_equal(got.spectrum.values, reference.spectrum.values)
            assert got.couplings == reference.couplings
            assert got.worst_margin_db == reference.worst_margin_db
