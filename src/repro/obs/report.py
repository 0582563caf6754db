"""Run reports: serialising a trace to JSON and a human-readable table.

A :class:`RunReport` is the frozen outcome of one traced run — the span
tree, the gauges and free-form metadata.  It round-trips through JSON
(``to_json`` / ``from_json``) so the CLI's ``--metrics-out`` files and the
benchmark harness's ``BENCH_*.json`` artefacts can be diffed across
commits, and renders as an aligned text table (``table``) for terminals.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any

from .tracer import Span

__all__ = ["RunReport"]

SCHEMA_VERSION = 1


def _format_count(value: float) -> str:
    """Counters are logically integers; render them without a trailing .0."""
    if float(value).is_integer():
        return str(int(value))
    return f"{value:g}"


@dataclass
class RunReport:
    """One traced run, ready for serialisation or display.

    Attributes:
        root: the span tree (the synthetic ``run`` root).
        gauges: last-write-wins point-in-time values.
        meta: free-form metadata (command, benchmark name, run_id, …).
    """

    root: Span
    gauges: dict[str, float] = field(default_factory=dict)
    meta: dict[str, Any] = field(default_factory=dict)

    # -- queries -----------------------------------------------------------

    def find(self, name: str) -> Span | None:
        """First span of that exact name in the tree (pre-order)."""
        return self.root.find(name)

    def totals(self) -> dict[str, float]:
        """Counter totals aggregated over the whole tree."""
        return self.root.total_counters()

    @property
    def run_id(self) -> str:
        """The run's correlation id (empty for pre-run_id reports)."""
        return str(self.meta.get("run_id", ""))

    # -- serialisation -----------------------------------------------------

    def to_dict(self) -> dict[str, Any]:
        """JSON-ready representation (schema-versioned)."""
        return {
            "schema_version": SCHEMA_VERSION,
            "meta": dict(self.meta),
            "gauges": dict(self.gauges),
            "counters_total": self.totals(),
            "spans": self.root.to_dict(),
        }

    def to_json(self, indent: int = 2) -> str:
        """Serialise to a JSON string."""
        return json.dumps(self.to_dict(), indent=indent, sort_keys=True)

    @classmethod
    def from_dict(cls, data: dict[str, Any]) -> "RunReport":
        """Rebuild a report from :meth:`to_dict` output.

        Keys this schema does not read are ignored, such as the
        ``histograms`` section that older reports carry.
        """
        return cls(
            root=Span.from_dict(data["spans"]),
            gauges={str(k): float(v) for k, v in data.get("gauges", {}).items()},
            meta=dict(data.get("meta", {})),
        )

    @classmethod
    def from_json(cls, text: str) -> "RunReport":
        """Rebuild a report from a :meth:`to_json` string."""
        return cls.from_dict(json.loads(text))

    def write(self, path: str | Path) -> None:
        """Write the JSON form to ``path`` (a ``pathlib.Path`` or str)."""
        Path(path).write_text(self.to_json() + "\n")

    # -- display -----------------------------------------------------------

    def table(self) -> str:
        """Aligned text rendering: span tree, then counters, then gauges."""
        total = self.root.wall_s or 1e-30
        rows: list[tuple[str, str, str, str]] = []
        for depth, span in self.root.walk():
            rows.append(
                (
                    "  " * depth + span.name,
                    str(span.count),
                    f"{span.wall_s:.4f}",
                    f"{100.0 * span.wall_s / total:.1f}",
                )
            )
        name_w = max(len(r[0]) for r in rows)
        name_w = max(name_w, len("span"))
        lines = [
            f"{'span':<{name_w}}  {'calls':>7}  {'wall [s]':>10}  {'%':>6}",
        ]
        for name, count, wall, pct in rows:
            lines.append(f"{name:<{name_w}}  {count:>7}  {wall:>10}  {pct:>6}")

        totals = self.totals()
        if totals:
            lines.append("")
            lines.append("counters:")
            key_w = max(len(k) for k in totals)
            for key in sorted(totals):
                lines.append(f"  {key:<{key_w}}  {_format_count(totals[key])}")
        if self.gauges:
            lines.append("")
            lines.append("gauges:")
            key_w = max(len(k) for k in self.gauges)
            for key in sorted(self.gauges):
                lines.append(f"  {key:<{key_w}}  {self.gauges[key]:g}")
        if self.meta:
            lines.append("")
            lines.append("meta:")
            for key in sorted(self.meta):
                lines.append(f"  {key}: {self.meta[key]}")
        return "\n".join(lines)
