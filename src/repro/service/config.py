"""Service configuration: one frozen object threaded through every layer.

Defaults are chosen for a local single-host deployment; the ``repro-emi
serve`` CLI maps its flags onto these fields one-to-one (see
``docs/SERVICE.md`` for the operational meaning of each knob).
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from pathlib import Path

from ..parallel import default_cache_dir

__all__ = ["ServiceConfig", "default_data_dir"]


def default_data_dir() -> Path:
    """The default artifact root.

    ``$REPRO_EMI_SERVICE_DIR`` wins when set; otherwise
    ``$XDG_CACHE_HOME/repro-emi/service`` (falling back to
    ``~/.cache/repro-emi/service``).
    """
    override = os.environ.get("REPRO_EMI_SERVICE_DIR")
    if override:
        return Path(override)
    xdg = os.environ.get("XDG_CACHE_HOME")
    base = Path(xdg) if xdg else Path.home() / ".cache"
    return base / "repro-emi" / "service"


@dataclass(frozen=True)
class ServiceConfig:
    """Knobs of one service instance.

    Attributes:
        host, port: HTTP bind address (``port=0`` picks an ephemeral
            port — the test/smoke entry point).
        data_dir: artifact root; per-job directories live under
            ``<data_dir>/jobs/<job_id>/``.
        cache_dir: shared persistent coupling cache for *all* jobs
            (``None`` disables the persistent tier).
        job_timeout_s: default per-job wall-clock timeout [s]
            (payloads may override via ``options.timeout_s``).
        max_queued: submissions refused with 429 once this many jobs
            are waiting (running jobs excluded).
        event_buffer: per-job ring-buffer capacity (events); an SSE
            consumer that falls further behind sees a cursor gap.
    """

    host: str = "127.0.0.1"
    port: int = 8765
    data_dir: Path = field(default_factory=default_data_dir)
    cache_dir: Path | None = field(default_factory=default_cache_dir)
    job_timeout_s: float = 300.0
    max_queued: int = 64
    event_buffer: int = 65536

    def jobs_root(self) -> Path:
        """The directory holding every per-job artifact directory."""
        return Path(self.data_dir) / "jobs"
