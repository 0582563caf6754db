"""Unit tests for persistent-cache garbage collection (LRU by mtime)."""

import os

from repro.obs import Tracer, set_tracer
from repro.parallel import PersistentCouplingCache


def make_entry(cache, key, mtime, payload=None):
    cache.put(key, payload or {"k": 0.1})
    path = cache.path_for(key)
    os.utime(path, (mtime, mtime))
    return path


def key(i: int) -> str:
    return f"{i:02x}" + "0" * 62


NOW = 1_000_000.0


class TestAgeEviction:
    def test_entries_older_than_max_age_go(self, tmp_path):
        cache = PersistentCouplingCache(cache_dir=tmp_path)
        old = make_entry(cache, key(1), NOW - 500.0)
        fresh = make_entry(cache, key(2), NOW - 10.0)
        stats = cache.gc(max_age_s=100.0, now=NOW)
        assert stats["scanned"] == 2
        assert stats["evicted"] == 1
        assert stats["kept"] == 1
        assert not old.is_file()
        assert fresh.is_file()

    def test_counter_tracks_evictions(self, tmp_path):
        cache = PersistentCouplingCache(cache_dir=tmp_path)
        make_entry(cache, key(1), NOW - 500.0)
        make_entry(cache, key(2), NOW - 600.0)
        tracer = Tracer()
        previous = set_tracer(tracer)
        try:
            assert tracer.report().totals().get("cache.evicted", 0) == 0
            stats = cache.gc(max_age_s=100.0, now=NOW)
            assert tracer.report().totals()["cache.evicted"] == 2
        finally:
            set_tracer(previous)
        assert stats["evicted"] == 2


class TestSizeEviction:
    def test_oldest_evicted_first_until_budget_fits(self, tmp_path):
        cache = PersistentCouplingCache(cache_dir=tmp_path)
        paths = [
            make_entry(cache, key(i), NOW - 100.0 + i, payload={"k": 0.1, "i": i})
            for i in range(4)
        ]
        sizes = [p.stat().st_size for p in paths]
        budget = sizes[2] + sizes[3]  # room for exactly the two newest
        stats = cache.gc(max_size_bytes=budget, now=NOW)
        assert stats["evicted"] == 2
        assert not paths[0].is_file() and not paths[1].is_file()
        assert paths[2].is_file() and paths[3].is_file()
        assert stats["bytes_after"] <= budget

    def test_zero_budget_clears_everything(self, tmp_path):
        cache = PersistentCouplingCache(cache_dir=tmp_path)
        for i in range(3):
            make_entry(cache, key(i), NOW - i)
        stats = cache.gc(max_size_bytes=0, now=NOW)
        assert stats["evicted"] == 3
        assert len(cache) == 0

    def test_within_budget_evicts_nothing(self, tmp_path):
        cache = PersistentCouplingCache(cache_dir=tmp_path)
        make_entry(cache, key(1), NOW)
        stats = cache.gc(max_size_bytes=10 * 1024 * 1024, now=NOW)
        assert stats["evicted"] == 0
        assert stats["bytes_after"] == stats["bytes_before"]


class TestCombined:
    def test_age_then_size(self, tmp_path):
        cache = PersistentCouplingCache(cache_dir=tmp_path)
        ancient = make_entry(cache, key(1), NOW - 1000.0)
        older = make_entry(cache, key(2), NOW - 50.0)
        newest = make_entry(cache, key(3), NOW - 1.0)
        budget = newest.stat().st_size  # post-age survivors must fit one entry
        stats = cache.gc(max_size_bytes=budget, max_age_s=100.0, now=NOW)
        assert stats["evicted"] == 2
        assert not ancient.is_file() and not older.is_file()
        assert newest.is_file()

    def test_bytes_accounting(self, tmp_path):
        cache = PersistentCouplingCache(cache_dir=tmp_path)
        for i in range(3):
            make_entry(cache, key(i), NOW - 1000.0)
        stats = cache.gc(max_age_s=100.0, now=NOW)
        assert stats["bytes_evicted"] == stats["bytes_before"]
        assert stats["bytes_after"] == 0

    def test_empty_cache_is_a_no_op(self, tmp_path):
        cache = PersistentCouplingCache(cache_dir=tmp_path / "missing")
        stats = cache.gc(max_size_bytes=1, max_age_s=1.0, now=NOW)
        assert stats == {
            "scanned": 0,
            "evicted": 0,
            "kept": 0,
            "bytes_before": 0,
            "bytes_after": 0,
            "bytes_evicted": 0,
        }

    def test_survivors_still_readable(self, tmp_path):
        cache = PersistentCouplingCache(cache_dir=tmp_path)
        make_entry(cache, key(1), NOW - 1000.0)
        make_entry(cache, key(2), NOW, payload={"k": 0.75})
        cache.gc(max_age_s=100.0, now=NOW)
        assert cache.get(key(2), dict) == {"k": 0.75}
        assert cache.get(key(1), dict) is None
