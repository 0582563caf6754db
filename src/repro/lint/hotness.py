"""Profile-guided severity: the hotness model behind perflint.

The perf observatory already records where time actually goes — every
benchmark and CLI run appends its span tree to the
:class:`~repro.obs.history.PerfHistory` JSONL store.  This module closes
the loop: it aggregates those spans into a *hotness snapshot* (wall-time
share per span name), maps span names onto modules and functions, and
promotes PRF findings that land on a hot path from ``info`` to
``error``.  A cold-path Python loop is a style note; the same loop
inside ``placement.sequential`` or ``coupling.field_solve`` is a defect
the CI gate must stop.

Snapshot document (``hotness-snapshot/1``), committed at
``benchmarks/baselines/HOTNESS.json`` so CI severity is deterministic
rather than a function of whichever machine ran the benchmarks last::

    {
      "schema": "hotness-snapshot/1",
      "threshold": 0.05,
      "total_wall_s": 65.08,
      "source": "benchmarks/out/perf-history.jsonl",
      "spans": {"placement.sequential": 0.165, "coupling.field_solve": 0.248, ...}
    }

``spans`` maps every recorded span name to its share of total root wall
time; names at or above ``threshold`` are the hot set.  Regenerate with
``make hotness-baseline`` (``repro-emi perf hotness``).

Span names map onto code with the same quiet-side philosophy as the
rules themselves — a mapping miss leaves a finding cold, never
promotes it:

* a span name that extends a module's dotted path marks the whole
  module hot (``coupling.sweep.distance`` -> ``repro/coupling/sweep.py``);
* a span name whose first segment matches the module's package or stem
  marks a *function* hot when a remaining segment's underscore tokens
  are contained in the function name's tokens (``placement.run`` ->
  ``AutoPlacer.run``; ``coupling.field_solve`` -> ``_field_solve``).
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path, PurePosixPath

__all__ = [
    "HOTNESS_SCHEMA",
    "DEFAULT_HOT_SHARE",
    "HotnessModel",
]

HOTNESS_SCHEMA = "hotness-snapshot/1"

#: A span below this share of total recorded wall time is cold.
DEFAULT_HOT_SHARE = 0.05

#: The synthetic root span every report carries; never a hot *path*.
_ROOT_SPAN = "run"


def _tokens(name: str) -> set[str]:
    return {token for token in name.lower().split("_") if token}


def _module_key(file_label: str) -> tuple[str, ...]:
    """Dotted module segments of a file label, project root dropped.

    ``repro/coupling/sweep.py`` -> ``("coupling", "sweep")``;
    ``repro/cli.py`` -> ``("cli",)``; package initializers map to the
    package itself.
    """
    parts = list(PurePosixPath(file_label).with_suffix("").parts)
    if len(parts) > 1:
        parts = parts[1:]
    if parts and parts[-1] == "__init__":
        parts = parts[:-1]
    return tuple(parts)


@dataclass
class HotnessModel:
    """Hot span names plus the mapping onto modules and functions.

    Attributes:
        shares: span name -> share of total recorded root wall time.
        threshold: minimum share that makes a span hot.
        source: provenance string (history path or snapshot file).
    """

    shares: dict[str, float] = field(default_factory=dict)
    threshold: float = DEFAULT_HOT_SHARE
    source: str = ""

    @property
    def hot_spans(self) -> list[str]:
        """Span names at or above the threshold, hottest first."""
        hot = [
            (share, name)
            for name, share in self.shares.items()
            if share >= self.threshold and name != _ROOT_SPAN
        ]
        return [name for share, name in sorted(hot, reverse=True)]

    # -- the code mapping ---------------------------------------------------

    def is_hot(self, file_label: str, symbol: str) -> bool:
        """Whether a finding's location lies on a recorded hot path.

        Args:
            file_label: the finding's relative file (``repro/peec/mesh.py``).
            symbol: the finding's enclosing dotted symbol
                (``"AutoPlacer._place_one"`` or ``"<module>"``).
        """
        module = _module_key(file_label)
        if not module:
            return False
        function = symbol.rsplit(".", maxsplit=1)[-1]
        function_tokens = _tokens(function)
        for span in self.hot_spans:
            segments = tuple(span.split("."))
            if _covers_module(segments, module):
                return True
            if _covers_function(segments, module, function_tokens):
                return True
        return False

    def promoted_count(self) -> int:
        """Number of hot span names (diagnostic/summary use)."""
        return len(self.hot_spans)

    # -- serialisation ------------------------------------------------------

    def to_dict(self) -> dict[str, object]:
        """The snapshot document (spans sorted for stable diffs)."""
        return {
            "schema": HOTNESS_SCHEMA,
            "threshold": self.threshold,
            "source": self.source,
            "spans": {name: round(share, 6) for name, share in sorted(self.shares.items())},
        }

    def save(self, path: Path) -> None:
        """Write the snapshot document."""
        path.write_text(json.dumps(self.to_dict(), indent=2) + "\n")

    @classmethod
    def load(cls, path: Path) -> HotnessModel:
        """Read a snapshot document.

        Raises:
            ValueError: for an unrecognised schema or malformed entries.
        """
        try:
            document = json.loads(path.read_text())
        except json.JSONDecodeError as exc:
            raise ValueError(f"hotness {path}: not valid JSON: {exc}") from exc
        if not isinstance(document, dict) or document.get("schema") != HOTNESS_SCHEMA:
            raise ValueError(f"hotness {path}: expected schema {HOTNESS_SCHEMA!r}")
        spans = document.get("spans", {})
        if not isinstance(spans, dict):
            raise ValueError(f"hotness {path}: 'spans' must be an object")
        try:
            shares = {str(name): float(share) for name, share in spans.items()}
            threshold = float(document.get("threshold", DEFAULT_HOT_SHARE))
        except (TypeError, ValueError) as exc:
            raise ValueError(f"hotness {path}: malformed shares: {exc}") from exc
        return cls(
            shares=shares,
            threshold=threshold,
            source=str(document.get("source", "")),
        )

    @classmethod
    def from_history(
        cls,
        history_path: Path,
        threshold: float = DEFAULT_HOT_SHARE,
    ) -> HotnessModel:
        """Aggregate a perf-history store into a hotness model.

        The latest record of each series key contributes its per-span
        wall seconds (older rows describe code that may since be gone);
        shares are relative to their summed root wall time.  An empty or
        missing store yields a model with no hot spans.
        """
        # Local import: repro.obs is cross-cutting, but keeping the lint
        # package importable without it at module load mirrors the engine.
        from ..obs.history import PerfHistory

        totals: dict[str, float] = {}
        root_total = 0.0
        latest = {record.key: record for record in PerfHistory(history_path).records()}
        for record in latest.values():
            report = record.report
            root_total += report.root.wall_s
            for _path, span in report.root.walk_paths():
                totals[span.name] = totals.get(span.name, 0.0) + span.wall_s
        if root_total <= 0.0:
            return cls(shares={}, threshold=threshold, source=str(history_path))
        shares = {name: wall / root_total for name, wall in totals.items()}
        shares.pop(_ROOT_SPAN, None)
        return cls(shares=shares, threshold=threshold, source=str(history_path))


def _covers_module(segments: tuple[str, ...], module: tuple[str, ...]) -> bool:
    """Span ``coupling.sweep.distance`` covers module ``coupling.sweep``.

    True when the span's segments extend (or equal) the module's dotted
    path — the span is recorded *inside* that module, so everything in
    the module is hot.
    """
    if len(segments) < len(module):
        return False
    return segments[: len(module)] == module


def _covers_function(
    segments: tuple[str, ...],
    module: tuple[str, ...],
    function_tokens: set[str],
) -> bool:
    """Span ``placement.run`` covers ``AutoPlacer.run`` in ``placement.placer``.

    The span's first segment must name the module's package or stem; a
    remaining segment then matches when its underscore tokens are all
    contained in the function name's tokens.
    """
    if not function_tokens:
        return False
    if segments[0] not in (module[0], module[-1]):
        return False
    for segment in segments[1:]:
        segment_tokens = _tokens(segment)
        if segment_tokens and segment_tokens <= function_tokens:
            return True
    return False
