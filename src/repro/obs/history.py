"""Perf-history store: an append-only JSONL database of run reports.

Every record is one traced run — a :class:`~repro.obs.RunReport` plus the
provenance needed to compare it longitudinally: a *key* (benchmark or CLI
command), the git SHA the code ran at, a UTC timestamp and a host
fingerprint (wall times are only comparable within one host).  Records
append as single JSON lines, so the store survives crashes mid-write
(a torn final line is skipped on read, never fatal) and diffs cleanly in
version control — ``benchmarks/out/perf-history.jsonl`` is the
repository's committed perf trajectory.

Schema (one line per record)::

    {"schema": 1, "key": "...", "git_sha": "...", "host": "...",
     "hostname": "...", "recorded_at": "...Z", "wall_s": 1.23,
     "report": RunReport.to_dict()}

Readers tolerate malformed lines and unknown (newer) schema versions by
skipping them; :attr:`PerfHistory.skipped_lines` counts what the last
read dropped.  Default location: ``$REPRO_EMI_PERF_HISTORY`` or
``~/.cache/repro-emi/perf/history.jsonl``.
"""

from __future__ import annotations

import hashlib
import json
import os
import platform
import subprocess
from dataclasses import dataclass
from datetime import datetime, timezone
from functools import lru_cache
from pathlib import Path
from statistics import median
from typing import Any

from .report import RunReport

__all__ = [
    "HISTORY_SCHEMA_VERSION",
    "HistoryRecord",
    "PerfHistory",
    "default_history_path",
    "default_key",
    "git_sha",
    "host_fingerprint",
]

HISTORY_SCHEMA_VERSION = 1


def default_history_path() -> Path:
    """Resolve the history file: env override, else the user cache dir.

    ``$REPRO_EMI_PERF_HISTORY`` wins when set; otherwise
    ``~/.cache/repro-emi/perf/history.jsonl`` (honouring
    ``$XDG_CACHE_HOME``), mirroring the persistent coupling cache.
    """
    override = os.environ.get("REPRO_EMI_PERF_HISTORY")
    if override:
        return Path(override)
    xdg = os.environ.get("XDG_CACHE_HOME")
    base = Path(xdg) if xdg else Path.home() / ".cache"
    return base / "repro-emi" / "perf" / "history.jsonl"


def git_sha() -> str:
    """The current commit SHA, or ``"unknown"`` outside a work tree.

    ``$REPRO_EMI_GIT_SHA`` overrides (CI can stamp the exact ref under
    test; tests pin determinism).
    """
    override = os.environ.get("REPRO_EMI_GIT_SHA")
    if override:
        return override
    return _git_sha_cached(os.getcwd())


@lru_cache(maxsize=8)
def _git_sha_cached(cwd: str) -> str:
    try:
        proc = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=cwd,
            capture_output=True,
            text=True,
            timeout=5.0,
            check=False,
        )
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    sha = proc.stdout.strip()
    return sha if proc.returncode == 0 and sha else "unknown"


@lru_cache(maxsize=1)
def host_fingerprint() -> str:
    """A short stable digest of the executing host and interpreter.

    Wall times from different machines (or different CPython builds on
    one machine) are not comparable; the fingerprint partitions the
    store so its statistics only ever aggregate like-for-like runs.
    """
    identity = "|".join(
        (
            platform.node(),
            platform.machine(),
            platform.python_implementation(),
            platform.python_version(),
            str(os.cpu_count() or 0),
        )
    )
    return hashlib.sha256(identity.encode()).hexdigest()[:12]


@dataclass(frozen=True)
class HistoryRecord:
    """One stored run: provenance plus the raw report payload."""

    key: str
    git_sha: str
    host: str
    hostname: str
    recorded_at: str
    wall_s: float
    report_data: dict[str, Any]

    @property
    def report(self) -> RunReport:
        """The stored run rebuilt as a :class:`RunReport`."""
        return RunReport.from_dict(self.report_data)

    @property
    def run_id(self) -> str:
        """The stored run's correlation id (empty for older records)."""
        meta = self.report_data.get("meta", {})
        if isinstance(meta, dict):
            return str(meta.get("run_id", ""))
        return ""

    def to_dict(self) -> dict[str, Any]:
        """The JSONL line payload for this record."""
        return {
            "schema": HISTORY_SCHEMA_VERSION,
            "key": self.key,
            "git_sha": self.git_sha,
            "host": self.host,
            "hostname": self.hostname,
            "recorded_at": self.recorded_at,
            "wall_s": self.wall_s,
            "report": self.report_data,
        }

    @classmethod
    def from_dict(cls, data: dict[str, Any]) -> "HistoryRecord":
        """Rebuild a record from one parsed JSONL line."""
        return cls(
            key=str(data["key"]),
            git_sha=str(data.get("git_sha", "unknown")),
            host=str(data.get("host", "")),
            hostname=str(data.get("hostname", "")),
            recorded_at=str(data.get("recorded_at", "")),
            wall_s=float(data.get("wall_s", 0.0)),
            report_data=dict(data["report"]),
        )


def default_key(report: RunReport) -> str:
    """The report's series key: ``meta`` benchmark or command, else ``run``."""
    meta = report.meta
    for field in ("benchmark", "command"):
        value = meta.get(field)
        if value:
            return str(value)
    return "run"


class PerfHistory:
    """Append-only, schema-versioned JSONL store of run reports.

    Args:
        path: the JSONL file; ``None`` resolves
            :func:`default_history_path`.  Parent directories are created
            on first append, never on read.
    """

    def __init__(self, path: str | Path | None = None):
        self.path = Path(path) if path is not None else default_history_path()
        #: Lines the most recent read skipped (malformed or newer schema).
        self.skipped_lines = 0

    # -- writing -----------------------------------------------------------

    def append(
        self,
        report: RunReport,
        key: str | None = None,
        sha: str | None = None,
    ) -> HistoryRecord:
        """Stamp provenance onto ``report`` and append one record.

        Args:
            report: the traced run to store.
            key: series name; defaults to ``meta["benchmark"]`` or
                ``meta["command"]``, else ``"run"``.
            sha: git SHA override (defaults to :func:`git_sha`).

        Returns:
            The record as written.
        """
        record = HistoryRecord(
            key=key if key is not None else default_key(report),
            git_sha=sha if sha is not None else git_sha(),
            host=host_fingerprint(),
            hostname=platform.node(),
            recorded_at=datetime.now(timezone.utc).isoformat(timespec="seconds"),
            wall_s=report.root.wall_s,
            report_data=report.to_dict(),
        )
        self.path.parent.mkdir(parents=True, exist_ok=True)
        line = json.dumps(record.to_dict(), sort_keys=True)
        # A torn previous write may have left the file without a trailing
        # newline; healing here keeps the new record on its own line.
        needs_newline = False
        if self.path.exists() and self.path.stat().st_size > 0:
            with self.path.open("rb") as probe:
                probe.seek(-1, 2)
                needs_newline = probe.read(1) != b"\n"
        with self.path.open("a", encoding="utf-8") as handle:
            if needs_newline:
                handle.write("\n")
            handle.write(line + "\n")
        return record

    # -- reading -----------------------------------------------------------

    def records(
        self, key: str | None = None, host: str | None = None
    ) -> list[HistoryRecord]:
        """All stored records, oldest first, optionally filtered.

        Args:
            key: restrict to one series.
            host: restrict to one host fingerprint (pass
                :func:`host_fingerprint` for "this machine").
        """
        self.skipped_lines = 0
        if not self.path.is_file():
            return []
        out: list[HistoryRecord] = []
        for line in self.path.read_text(encoding="utf-8").splitlines():
            if not line.strip():
                continue
            try:
                data = json.loads(line)
                if int(data.get("schema", 0)) > HISTORY_SCHEMA_VERSION:
                    raise ValueError("newer schema")
                record = HistoryRecord.from_dict(data)
            except (ValueError, KeyError, TypeError):
                self.skipped_lines += 1
                continue
            if key is not None and record.key != key:
                continue
            if host is not None and record.host != host:
                continue
            out.append(record)
        return out

    def keys(self) -> dict[str, int]:
        """Record counts per series key."""
        counts: dict[str, int] = {}
        for record in self.records():
            counts[record.key] = counts.get(record.key, 0) + 1
        return counts

    def last(
        self, key: str | None = None, n: int = 1, host: str | None = None
    ) -> list[HistoryRecord]:
        """The most recent ``n`` records of a series, oldest first."""
        matching = self.records(key=key, host=host)
        return matching[-n:] if n > 0 else []

    def summarise(self, key: str, host: str | None = None) -> dict[str, Any]:
        """Longitudinal statistics of one series.

        Returns:
            ``{"key", "runs", "first", "last", "spans": {path: {median,
            min, max, last}}, "counters": {name: {median, last}}}`` —
            span statistics are wall seconds keyed by ``/``-joined span
            paths; counters aggregate whole-tree totals.
        """
        records = self.records(key=key, host=host)
        span_series: dict[str, list[float]] = {}
        counter_series: dict[str, list[float]] = {}
        for record in records:
            report = record.report
            for path, span in report.root.walk_paths():
                span_series.setdefault("/".join(path), []).append(span.wall_s)
            for name, value in report.totals().items():
                counter_series.setdefault(name, []).append(value)
        return {
            "key": key,
            "runs": len(records),
            "first": records[0].recorded_at if records else None,
            "last": records[-1].recorded_at if records else None,
            "spans": {
                path: {
                    "median": median(values),
                    "min": min(values),
                    "max": max(values),
                    "last": values[-1],
                }
                for path, values in sorted(span_series.items())
            },
            "counters": {
                name: {"median": median(values), "last": values[-1]}
                for name, values in sorted(counter_series.items())
            },
        }

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"PerfHistory({str(self.path)!r})"
