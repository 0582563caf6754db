"""Exporter: a run report as Chrome trace-event JSON.

:func:`to_chrome_trace` writes a :class:`~repro.obs.RunReport` in the Trace
Event Format consumed by Perfetto (https://ui.perfetto.dev) and
``about://tracing``.  The profile tree aggregates spans by name (it is not
an event log), so the exporter *synthesises* a timeline: each span becomes
one complete (``"X"``) event whose duration is its accumulated wall time,
with children laid out back-to-back from their parent's start.  Relative
widths and nesting are faithful; individual entry timestamps are not
recorded and therefore not reconstructed.

It is a pure function of the report — deterministic output, pinned by a
golden-file test.
"""

from __future__ import annotations

import json
from typing import Any

from .report import RunReport
from .tracer import Span

__all__ = ["to_chrome_trace", "chrome_trace_json"]

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
