"""Persistent on-disk cache for coupling results, keyed by content hash.

The paper motivates its whole sensitivity-analysis machinery with the cost
of field simulation; this cache makes every paid-for field solve reusable
*across processes and sessions*.  Entries are tiny JSON files keyed by the
SHA-256 content hash of the problem inputs (see
:mod:`repro.parallel.fingerprint`), stored two-level-sharded under a cache
directory:

``<cache_dir>/<key[:2]>/<key>.json``

Semantics (documented in full in ``docs/PERFORMANCE.md``):

* **hit** — the file exists, carries the expected schema version and
  its payload decodes;
* **miss** — no file;
* **stale** — the file exists but its schema version differs, the JSON
  is unreadable or the reader's decoder rejects the payload; stale
  entries are deleted on sight and reported via the ``cache.stale``
  counter, which is how a :data:`CACHE_SCHEMA_VERSION` bump invalidates
  an old store without a manual wipe.

Every read counts exactly one of the three.

Writes are atomic (temp file + ``os.replace``) so concurrent workers and
interrupted runs can never leave a torn entry, and every I/O error
degrades to a miss — the cache is an accelerator, never a correctness
dependency.

The store is multi-tenant by construction: any number of processes *and*
threads may point instances at the same directory (the service layer
shares one cache directory across all jobs, see ``docs/SERVICE.md``).
On-disk safety comes from the atomic replace.  An instance keeps no
counts of its own: every event is counted on the active tracer
(``cache.hit`` / ``cache.miss`` / ``cache.stale`` / ``cache.write`` /
``cache.evicted``), and :meth:`PersistentCouplingCache.gc` returns its
eviction tally.

The store is payload-agnostic: it persists plain JSON dictionaries under
opaque keys.  The :class:`repro.coupling.CouplingDatabase` owns the
mapping between its values and their dictionary form (it hands
:meth:`PersistentCouplingCache.get` the decoder), and names each entry
by :func:`repro.parallel.cache_name`, keeping this layer free of any
physics imports.
"""

from __future__ import annotations

import json
import os
import tempfile
import time
from collections.abc import Callable
from pathlib import Path
from typing import Any, TypeVar

from ..obs import get_tracer
from .fingerprint import CACHE_SCHEMA_VERSION

__all__ = ["PersistentCouplingCache", "default_cache_dir"]

_T = TypeVar("_T")


def default_cache_dir() -> Path:
    """The default on-disk cache location.

    ``$REPRO_EMI_CACHE_DIR`` wins when set; otherwise
    ``$XDG_CACHE_HOME/repro-emi/coupling`` (falling back to
    ``~/.cache/repro-emi/coupling``).
    """
    override = os.environ.get("REPRO_EMI_CACHE_DIR")
    if override:
        return Path(override)
    xdg = os.environ.get("XDG_CACHE_HOME")
    base = Path(xdg) if xdg else Path.home() / ".cache"
    return base / "repro-emi" / "coupling"


class PersistentCouplingCache:
    """Content-addressed JSON store for field-simulation results.

    Args:
        cache_dir: directory holding the entries; created lazily on the
            first write.  Defaults to :func:`default_cache_dir`.
        version: schema version expected of every entry; entries written
            under another version are treated as stale (dimensionless
            count, compared exactly).
    """

    def __init__(self, cache_dir: str | Path | None = None, version: int = CACHE_SCHEMA_VERSION):
        self.cache_dir = Path(cache_dir) if cache_dir is not None else default_cache_dir()
        self.version = version

    def path_for(self, key: str) -> Path:
        """On-disk location of a key (two-level sharding by hex prefix)."""
        return self.cache_dir.joinpath(key[:2], f"{key}.json")

    def get(self, key: str, decode: Callable[[dict[str, Any]], _T]) -> _T | None:
        """The decoded entry for ``key``, or ``None`` on miss/stale.

        ``decode`` turns the stored payload into the caller's value and
        raises ``KeyError`` / ``TypeError`` / ``ValueError`` on a payload
        it rejects.  Counts exactly one of ``cache.hit`` / ``cache.miss``
        / ``cache.stale`` on the active tracer; a stale entry (another
        schema version, unreadable JSON or a rejected payload) is deleted.
        """
        path = self.path_for(key)
        try:
            raw = path.read_text(encoding="utf-8")
        except OSError:
            get_tracer().count("cache.miss")
            return None
        try:
            document = json.loads(raw)
            if int(document["version"]) != self.version:
                raise ValueError(f"schema version {document['version']!r}")
            payload = document["payload"]
            if not isinstance(payload, dict):
                raise TypeError(f"payload is a {type(payload).__name__}")
            value = decode(payload)
        except (KeyError, TypeError, ValueError):
            get_tracer().count("cache.stale")
            self._discard(path)
            return None
        get_tracer().count("cache.hit")
        return value

    def put(self, key: str, payload: dict[str, Any]) -> None:
        """Atomically persist a payload under ``key`` (best effort).

        I/O failures (read-only filesystem, disk full) are swallowed: the
        result simply is not cached.  Counts ``cache.write`` on success.
        """
        path = self.path_for(key)
        document = {"version": self.version, "key": key, "payload": payload}
        try:
            path.parent.mkdir(parents=True, exist_ok=True)
            fd, tmp_name = tempfile.mkstemp(
                prefix=".tmp-", suffix=".json", dir=path.parent
            )
            try:
                with os.fdopen(fd, "w", encoding="utf-8") as handle:
                    json.dump(document, handle)
                os.replace(tmp_name, path)
            except BaseException:
                self._discard(Path(tmp_name))
                raise
        except OSError:
            return
        get_tracer().count("cache.write")

    def gc(
        self,
        max_size_bytes: int | None = None,
        max_age_s: float | None = None,
        now: float | None = None,
    ) -> dict[str, Any]:
        """Evict entries LRU-by-mtime until the store fits its budgets.

        Two independent caps, either or both may be ``None`` (no cap):

        * ``max_age_s`` — entries whose mtime is older than this many
          seconds are always evicted;
        * ``max_size_bytes`` — after age eviction, the oldest remaining
          entries are evicted until the total size fits.

        mtime is the LRU signal because :meth:`put` rewrites entries
        atomically (``os.replace`` refreshes mtime) — a recently
        re-written entry is a recently *produced* one.  Files that
        vanish mid-scan (a concurrent GC or clear) are skipped, never
        fatal; each successful eviction counts ``cache.evicted`` on the
        active tracer.

        Args:
            max_size_bytes: total on-disk budget [bytes].
            max_age_s: maximum entry age [s].
            now: reference timestamp for age math (defaults to
                ``time.time()``; exposed for deterministic tests).

        Returns:
            ``{"scanned", "evicted", "kept", "bytes_before",
            "bytes_after", "bytes_evicted"}`` — entry counts and sizes.
        """
        reference = time.time() if now is None else now
        entries: list[tuple[float, int, Path]] = []
        if self.cache_dir.is_dir():
            for path in self.cache_dir.glob("*/*.json"):
                try:
                    stat = path.stat()
                except OSError:
                    continue
                entries.append((stat.st_mtime, stat.st_size, path))
        entries.sort()  # oldest first: the eviction order
        bytes_before = sum(size for _, size, _ in entries)
        evict: list[tuple[float, int, Path]] = []
        kept = list(entries)
        if max_age_s is not None:
            cutoff = reference - max_age_s
            evict = [e for e in kept if e[0] < cutoff]
            kept = [e for e in kept if e[0] >= cutoff]
        if max_size_bytes is not None:
            total = sum(size for _, size, _ in kept)
            while kept and total > max_size_bytes:
                oldest = kept.pop(0)
                evict.append(oldest)
                total -= oldest[1]
        tracer = get_tracer()
        evicted_count = 0
        evicted_bytes = 0
        for _mtime, size, path in evict:
            try:
                path.unlink()
            except OSError:
                continue
            evicted_count += 1
            evicted_bytes += size
            tracer.count("cache.evicted")
        return {
            "scanned": len(entries),
            "evicted": evicted_count,
            "kept": len(entries) - evicted_count,
            "bytes_before": bytes_before,
            "bytes_after": bytes_before - evicted_bytes,
            "bytes_evicted": evicted_bytes,
        }

    def clear(self) -> int:
        """Delete every entry under the cache directory; returns the count."""
        removed = 0
        if not self.cache_dir.is_dir():
            return removed
        for entry in sorted(self.cache_dir.glob("*/*.json")):
            self._discard(entry)
            removed += 1
        return removed

    def __len__(self) -> int:
        """Number of entries currently on disk (any schema version)."""
        if not self.cache_dir.is_dir():
            return 0
        return sum(1 for _ in self.cache_dir.glob("*/*.json"))

    @staticmethod
    def _discard(path: Path) -> None:
        try:
            path.unlink()
        except OSError:
            pass

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"PersistentCouplingCache({str(self.cache_dir)!r}, v{self.version})"
