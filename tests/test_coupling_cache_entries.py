"""Persistent coupling-cache entries: stable names, and rejected entries.

A cache directory filled by an earlier build must keep hitting, so the
on-disk name of one key per namespace is pinned.  A stored entry whose
payload the database rejects counts ``cache.stale`` once (never
``cache.hit`` as well) and is deleted, so no later run counts it again.
"""

import json

import numpy as np

from repro.components import FilmCapacitorX2, small_bobbin_choke
from repro.coupling import CouplingDatabase
from repro.geometry import Placement2D
from repro.obs import Tracer, set_tracer
from repro.parallel import PersistentCouplingCache, cache_name, law_key, pair_key
from repro.peec import PAIR_ORDER, SELF_INDUCTANCE_ORDER

GRID = np.geomspace(0.02, 0.12, 7)
PA, PB = Placement2D.at(0.0, 0.0), Placement2D.at(0.03, 0.01, 90.0)


def traced(fn, *args):
    """``fn(*args)`` and the ``cache.hit/miss/stale`` counts it produced."""
    tracer = Tracer()
    previous = set_tracer(tracer)
    try:
        result = fn(*args)
    finally:
        set_tracer(previous)
    totals = tracer.report().totals()
    return result, {kind: totals.get(f"cache.{kind}", 0) for kind in ("hit", "miss", "stale")}


def corrupt(cache: PersistentCouplingCache, name: str, **fields) -> None:
    """Overwrite fields of one stored payload, keeping its schema version."""
    path = cache.path_for(name)
    document = json.loads(path.read_text(encoding="utf-8"))
    document["payload"].update(fields)
    path.write_text(json.dumps(document), encoding="utf-8")


class TestOnDiskNames:
    """Names written by the cache since schema version 1 (pinned digests)."""

    def test_pair(self):
        key = pair_key(FilmCapacitorX2(), PA, small_bobbin_choke(), PB, 0.002, PAIR_ORDER)
        assert cache_name("pair", key) == (
            "cee5098c34e6764712eaa2ad4b6afb8c627d34034b8202b1fea8ab3674d44fb1"
        )

    def test_self(self):
        key = (small_bobbin_choke().fingerprint, SELF_INDUCTANCE_ORDER)
        assert cache_name("self", key) == (
            "6962ff3796823d5353e57b1c825b9a089f3ffc2593a9b26f573ff71cfc54ff9c"
        )

    def test_law(self):
        key = law_key(FilmCapacitorX2(), small_bobbin_choke(), GRID, 90.0, -90.0, None, PAIR_ORDER)
        assert cache_name("law", key) == (
            "601cf9fc08b0ccf9628aaff36ff4f4f221be120f4363373d84621dc34bd45d53"
        )


class TestRejectedEntries:
    def test_pair(self, tmp_path):
        cap, choke = FilmCapacitorX2(), small_bobbin_choke()
        cache = PersistentCouplingCache(tmp_path)
        fresh = CouplingDatabase(persistent=cache).coupling(cap, PA, choke, PB)
        corrupt(cache, cache_name("pair", pair_key(cap, PA, choke, PB, None, PAIR_ORDER)), k="x")

        result, counts = traced(CouplingDatabase(persistent=cache).coupling, cap, PA, choke, PB)
        assert result == fresh
        assert counts == {"hit": 0, "miss": 0, "stale": 1}  # one read of the key
        # The re-solve was written back under the key: the next run hits.
        _, counts = traced(CouplingDatabase(persistent=cache).coupling, cap, PA, choke, PB)
        assert counts == {"hit": 1, "miss": 0, "stale": 0}

    def test_mirrored_pair(self, tmp_path):
        """A reversed request is its own key: it never reads the forward entry."""
        cap, choke = FilmCapacitorX2(), small_bobbin_choke()
        cache = PersistentCouplingCache(tmp_path)
        CouplingDatabase(persistent=cache).coupling(cap, PA, choke, PB)
        name = cache_name("pair", pair_key(cap, PA, choke, PB, None, PAIR_ORDER))
        corrupt(cache, name, mutual_h=None)

        _, counts = traced(CouplingDatabase(persistent=cache).coupling, choke, PB, cap, PA)
        assert counts == {"hit": 0, "miss": 1, "stale": 0}
        assert cache.path_for(name).exists()
        _, counts = traced(CouplingDatabase(persistent=cache).coupling, cap, PA, choke, PB)
        assert counts == {"hit": 0, "miss": 0, "stale": 1}
        _, counts = traced(CouplingDatabase(persistent=cache).coupling, cap, PA, choke, PB)
        assert counts == {"hit": 1, "miss": 0, "stale": 0}

    def test_one_read_per_lookup_on_an_empty_store(self, tmp_path):
        cap, choke = FilmCapacitorX2(), small_bobbin_choke()
        db = CouplingDatabase(persistent=PersistentCouplingCache(tmp_path))
        _, counts = traced(db.coupling, cap, PA, choke, PB)
        assert counts == {"hit": 0, "miss": 1, "stale": 0}

    def test_self_inductance(self, tmp_path):
        cache = PersistentCouplingCache(tmp_path)
        CouplingDatabase(persistent=cache).self_inductance(small_bobbin_choke())
        key = (small_bobbin_choke().fingerprint, SELF_INDUCTANCE_ORDER)
        corrupt(cache, cache_name("self", key), self_h=-1.0)

        db = CouplingDatabase(persistent=cache)
        value, counts = traced(db.self_inductance, small_bobbin_choke())
        assert value == small_bobbin_choke().geometric_inductance
        assert counts == {"hit": 0, "miss": 0, "stale": 1}
        _, counts = traced(CouplingDatabase(persistent=cache).self_inductance, small_bobbin_choke())
        assert counts == {"hit": 1, "miss": 0, "stale": 0}

    def test_distance_law(self, tmp_path):
        cap = FilmCapacitorX2()
        cache = PersistentCouplingCache(tmp_path)

        def law(db):
            return db.distance_law(cap, cap, GRID, 0.0, -90.0, None)

        fitted = law(CouplingDatabase(persistent=cache))
        key = law_key(cap, cap, GRID, 0.0, -90.0, None, PAIR_ORDER)
        corrupt(cache, cache_name("law", key), n=0.0)

        db = CouplingDatabase(persistent=cache)
        refit, counts = traced(law, db)
        assert refit == fitted and db.stats.law_fits == 1
        # Every hit is one of the sweep's stored pairs; the law is only stale.
        assert counts == {"hit": db.stats.persistent_hits, "miss": 0, "stale": 1}
        _, counts = traced(law, CouplingDatabase(persistent=cache))
        assert counts == {"hit": 1, "miss": 0, "stale": 0}
