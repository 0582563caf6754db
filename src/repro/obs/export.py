"""Exporters: Chrome trace-event JSON and Prometheus text exposition.

Two interchange formats for a :class:`~repro.obs.RunReport`:

* :func:`to_chrome_trace` — the Trace Event Format consumed by Perfetto
  (https://ui.perfetto.dev) and ``about://tracing``.  The profile tree
  aggregates spans by name (it is not an event log), so the exporter
  *synthesises* a timeline: each span becomes one complete (``"X"``)
  event whose duration is its accumulated wall time, with children laid
  out back-to-back from their parent's start.  Relative widths and
  nesting are faithful; individual entry timestamps are not recorded and
  therefore not reconstructed.

* :func:`to_prometheus` — Prometheus/OpenMetrics-style text exposition of
  the report's scalars (span walls and call counts, counter totals,
  gauges), for scraping run artefacts into existing dashboards.

Both are pure functions of the report — deterministic output, pinned by
a golden-file test.
"""

from __future__ import annotations

import json
from typing import Any

from .report import RunReport
from .tracer import Span

__all__ = ["to_chrome_trace", "chrome_trace_json", "to_prometheus"]

def _emit_span(
    span: Span, start_us: float, events: list[dict[str, Any]]
) -> None:
    duration_us = span.wall_s * 1e6
    event: dict[str, Any] = {
        "name": span.name,
        "cat": "span",
        "ph": "X",
        "ts": start_us,
        "dur": duration_us,
        "pid": 1,
        "tid": 1,
        "args": {"count": span.count},
    }
    if span.counters:
        event["args"]["counters"] = dict(sorted(span.counters.items()))
    events.append(event)
    offset = start_us
    for child in span.children.values():
        _emit_span(child, offset, events)
        offset += child.wall_s * 1e6


def to_chrome_trace(report: RunReport) -> dict[str, Any]:
    """The report as a Chrome Trace Event Format object.

    Returns:
        ``{"traceEvents": [...], "displayTimeUnit": "ms", "otherData":
        {...}}`` — load the JSON-serialised form in Perfetto or
        ``about://tracing``.  Timestamps/durations are microseconds (the
        format's unit); ``otherData`` carries the report's meta, gauges
        and whole-tree counter totals.
    """
    events: list[dict[str, Any]] = []
    _emit_span(report.root, 0.0, events)
    return {
        "traceEvents": events,
        "displayTimeUnit": "ms",
        "otherData": {
            "meta": dict(report.meta),
            "gauges": dict(report.gauges),
            "counters_total": report.totals(),
        },
    }


def chrome_trace_json(report: RunReport, indent: int = 2) -> str:
    """:func:`to_chrome_trace` serialised to a stable JSON string."""
    return json.dumps(to_chrome_trace(report), indent=indent, sort_keys=True)


def _metric_escape(value: str) -> str:
    """Escape a Prometheus label value (backslash, quote, newline)."""
    return value.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")


def _number(value: float) -> str:
    """Render a sample value (integers without the trailing ``.0``)."""
    if float(value).is_integer() and abs(value) < 1e15:
        return str(int(value))
    return repr(float(value))


def to_prometheus(report: RunReport, prefix: str = "repro_emi") -> str:
    """The report's scalars in Prometheus text exposition format.

    Metric families (``<prefix>_…``):

    * ``span_wall_seconds{path="run/flow.rules"}`` — accumulated wall
      time per span path;
    * ``span_calls_total{path=…}`` — entry count per span path;
    * ``counter_total{counter="peec.filament_pairs"}`` — whole-tree
      counter totals;
    * ``gauge{name="mem.flow.rules.peak_bytes"}`` — report gauges, plus
      two *derived* cache-efficiency gauges when the corresponding
      counters are present: ``cache.hit_ratio`` (persistent on-disk
      tier: ``cache.hit`` over ``cache.hit + cache.miss + cache.stale``
      — stale entries are re-solved, so they count as misses) and
      ``coupling.cache_hit_ratio`` (the in-memory tier, which includes
      persistent hits promoted by ``coupling.cache_hits``).

    Args:
        report: the run to export.
        prefix: metric-name prefix (no trailing underscore).
    """
    walls: list[tuple[str, float, float]] = [
        ("/".join(path), span.wall_s, float(span.count))
        for path, span in report.root.walk_paths()
    ]
    lines: list[str] = []

    lines.append(f"# TYPE {prefix}_span_wall_seconds gauge")
    for path, wall, _count in walls:
        lines.append(
            f'{prefix}_span_wall_seconds{{path="{_metric_escape(path)}"}} '
            f"{_number(wall)}"
        )
    lines.append(f"# TYPE {prefix}_span_calls_total counter")
    for path, _wall, count in walls:
        lines.append(
            f'{prefix}_span_calls_total{{path="{_metric_escape(path)}"}} '
            f"{_number(count)}"
        )

    totals = report.totals()
    if totals:
        lines.append(f"# TYPE {prefix}_counter_total counter")
        for name in sorted(totals):
            lines.append(
                f'{prefix}_counter_total{{counter="{_metric_escape(name)}"}} '
                f"{_number(totals[name])}"
            )
    gauges = dict(report.gauges)
    gauges.update(_derived_cache_gauges(totals))
    if gauges:
        lines.append(f"# TYPE {prefix}_gauge gauge")
        for name in sorted(gauges):
            lines.append(
                f'{prefix}_gauge{{name="{_metric_escape(name)}"}} '
                f"{_number(gauges[name])}"
            )
    return "\n".join(lines) + "\n"


def _derived_cache_gauges(totals: dict[str, float]) -> dict[str, float]:
    """Cache hit-rate gauges derived from the raw hit/miss counters.

    The persistent tier counts ``cache.hit`` / ``cache.miss`` /
    ``cache.stale`` (a stale entry forces a re-solve, so it rates as a
    miss); the in-memory coupling tier counts ``coupling.cache_hits`` /
    ``coupling.cache_misses`` (persistent promotions included in the
    hits, see CacheStats.persistent_hits).  A tier with no lookups
    emits nothing — a 0/0 ratio would read as "always missing".
    """
    derived: dict[str, float] = {}
    disk_hits = totals.get("cache.hit", 0.0)
    disk_lookups = (
        disk_hits + totals.get("cache.miss", 0.0) + totals.get("cache.stale", 0.0)
    )
    if disk_lookups > 0:
        derived["cache.hit_ratio"] = disk_hits / disk_lookups
    mem_hits = totals.get("coupling.cache_hits", 0.0)
    mem_lookups = mem_hits + totals.get("coupling.cache_misses", 0.0)
    if mem_lookups > 0:
        derived["coupling.cache_hit_ratio"] = mem_hits / mem_lookups
    return derived
