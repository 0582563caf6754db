"""Unit tests for the persistent coupling cache and its content keys."""

import json
import math

import pytest

from repro.geometry import Placement2D
from repro.obs import Tracer, set_tracer
from repro.parallel import (
    CACHE_SCHEMA_VERSION,
    PersistentCouplingCache,
    cache_name,
    component_fingerprint,
    default_cache_dir,
    pair_key,
    relative_pose_key,
)

KEY = "ab" + "0" * 62


@pytest.fixture
def counts():
    """Tracer counter totals of the test body (``counts()["cache.hit"]``)."""
    tracer = Tracer()
    previous = set_tracer(tracer)
    yield lambda: tracer.report().totals()
    set_tracer(previous)


class TestDefaultCacheDir:
    def test_env_override_wins(self, monkeypatch, tmp_path):
        monkeypatch.setenv("REPRO_EMI_CACHE_DIR", str(tmp_path / "override"))
        assert default_cache_dir() == tmp_path / "override"

    def test_xdg_fallback(self, monkeypatch, tmp_path):
        monkeypatch.delenv("REPRO_EMI_CACHE_DIR", raising=False)
        monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path))
        assert default_cache_dir() == tmp_path / "repro-emi" / "coupling"


class TestStore:
    def test_miss_on_empty_store(self, tmp_path, counts):
        cache = PersistentCouplingCache(cache_dir=tmp_path)
        assert cache.get(KEY, dict) is None
        assert counts()["cache.miss"] == 1 and counts().get("cache.hit", 0) == 0

    def test_hit_after_write(self, tmp_path, counts):
        cache = PersistentCouplingCache(cache_dir=tmp_path)
        cache.put(KEY, {"k": 0.25})
        assert cache.get(KEY, dict) == {"k": 0.25}
        assert counts()["cache.hit"] == 1 and counts()["cache.write"] == 1
        assert len(cache) == 1

    def test_shared_across_instances(self, tmp_path):
        PersistentCouplingCache(cache_dir=tmp_path).put(KEY, {"k": 1.0})
        other = PersistentCouplingCache(cache_dir=tmp_path)
        assert other.get(KEY, dict) == {"k": 1.0}

    def test_sharded_layout(self, tmp_path):
        cache = PersistentCouplingCache(cache_dir=tmp_path)
        cache.put(KEY, {})
        assert cache.path_for(KEY) == tmp_path / KEY[:2] / f"{KEY}.json"
        assert cache.path_for(KEY).is_file()

    def test_stale_after_version_bump(self, tmp_path, counts):
        PersistentCouplingCache(cache_dir=tmp_path, version=1).put(KEY, {"k": 1.0})
        bumped = PersistentCouplingCache(cache_dir=tmp_path, version=2)
        assert bumped.get(KEY, dict) is None
        assert counts()["cache.stale"] == 1
        # Stale entries are deleted on sight: the next lookup is a plain miss.
        assert bumped.get(KEY, dict) is None
        assert counts()["cache.miss"] == 1

    def test_corrupt_entry_is_stale_and_deleted(self, tmp_path, counts):
        cache = PersistentCouplingCache(cache_dir=tmp_path)
        path = cache.path_for(KEY)
        path.parent.mkdir(parents=True)
        path.write_text("{not json", encoding="utf-8")
        assert cache.get(KEY, dict) is None
        assert counts()["cache.stale"] == 1
        assert not path.is_file()

    def test_non_dict_payload_is_stale(self, tmp_path, counts):
        cache = PersistentCouplingCache(cache_dir=tmp_path)
        path = cache.path_for(KEY)
        path.parent.mkdir(parents=True)
        path.write_text(
            json.dumps({"version": CACHE_SCHEMA_VERSION, "payload": [1, 2]}),
            encoding="utf-8",
        )
        assert cache.get(KEY, dict) is None
        assert counts()["cache.stale"] == 1

    def test_clear(self, tmp_path):
        cache = PersistentCouplingCache(cache_dir=tmp_path)
        cache.put(KEY, {})
        cache.put("cd" + "0" * 62, {})
        assert cache.clear() == 2
        assert len(cache) == 0


class TestComponentFingerprint:
    def test_deterministic_and_instance_independent(self, x2_cap):
        from repro.components import FilmCapacitorX2

        assert component_fingerprint(x2_cap) == component_fingerprint(
            FilmCapacitorX2()
        )

    def test_sensitive_to_geometry(self, x2_cap):
        from repro.components import FilmCapacitorX2

        fingerprint = component_fingerprint(x2_cap)
        taller = FilmCapacitorX2(loop_height=x2_cap.loop_height * 1.001)
        assert component_fingerprint(taller) != fingerprint

    def test_sensitive_to_part_type(self, x2_cap, bobbin):
        assert component_fingerprint(x2_cap) != component_fingerprint(bobbin)

    def test_memoised_on_the_component(self, x2_cap):
        assert x2_cap.fingerprint == component_fingerprint(x2_cap)
        assert x2_cap.fingerprint is x2_cap.fingerprint


class TestPoseKey:
    def test_rigid_motion_invariance(self):
        pa = Placement2D.at(0.0, 0.0, 10.0)
        pb = Placement2D.at(0.03, 0.01, 70.0)
        # Translate and rotate the *pair* rigidly: same relative key.
        moved_a = Placement2D.at(0.05, -0.02, 10.0 + 33.0)
        offset = pb.position - pa.position
        rotated = offset.rotated(math.radians(33.0))
        moved_b = Placement2D.at(
            0.05 + rotated.x, -0.02 + rotated.y, 70.0 + 33.0
        )
        assert relative_pose_key(pa, pb) == relative_pose_key(moved_a, moved_b)

    def test_quantisation_bins_sub_tenth_millimetre(self):
        pa = Placement2D.at(0.0, 0.0, 0.0)
        near = Placement2D.at(0.0300, 0.0, 0.0)
        nearer = Placement2D.at(0.030004, 0.0, 0.0)  # < 0.05 mm apart
        far = Placement2D.at(0.0302, 0.0, 0.0)
        assert relative_pose_key(pa, near) == relative_pose_key(pa, nearer)
        assert relative_pose_key(pa, near) != relative_pose_key(pa, far)


class TestPairKey:
    def _placements(self):
        return Placement2D.at(0.0, 0.0, 0.0), Placement2D.at(0.03, 0.0, 45.0)

    def test_depends_on_every_ingredient(self, x2_cap, bobbin):
        pa, pb = self._placements()
        base = cache_name("pair", pair_key(x2_cap, pa, bobbin, pb, None, 8))
        assert cache_name("pair", pair_key(bobbin, pa, x2_cap, pb, None, 8)) != base
        assert cache_name("pair", pair_key(x2_cap, pb, bobbin, pa, None, 8)) != base
        assert cache_name("pair", pair_key(x2_cap, pa, bobbin, pb, 0.01, 8)) != base
        assert cache_name("pair", pair_key(x2_cap, pa, bobbin, pb, None, 12)) != base
        assert (
            cache_name("pair", pair_key(x2_cap, pa, bobbin, pb, None, 8), version=2)
            != base
        )
        standoff = Placement2D(pb.position, pb.rotation_rad, z_offset=0.01)
        assert cache_name("pair", pair_key(x2_cap, pa, bobbin, standoff, None, 8)) != base

    def test_stable_across_calls(self, x2_cap):
        from repro.components import FilmCapacitorX2

        pa, pb = self._placements()
        assert cache_name("pair", pair_key(x2_cap, pa, x2_cap, pb, None, 8)) == (
            cache_name("pair", pair_key(FilmCapacitorX2(), pa, FilmCapacitorX2(), pb, None, 8))
        )
