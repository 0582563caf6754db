"""Observability: structured tracing, stage metrics and run reports.

Zero-dependency (stdlib-only) instrumentation for the EMI design flow:

* :class:`Tracer` / :class:`Span` — hierarchical wall-time spans with call
  counts and per-span counters, aggregated as a profile tree;
* :class:`NullTracer` — the always-installed default whose operations are
  no-ops, keeping instrumented hot paths free when tracing is off;
* :class:`RunReport` — JSON-serialisable snapshot of a traced run plus a
  human-readable table (the CLI's ``--trace`` / ``--metrics-out`` output
  and the benchmark harness's ``BENCH_*.json`` artefacts);
* :class:`PerfHistory` — append-only JSONL store of run reports keyed by
  (benchmark/command, git SHA, timestamp, host fingerprint): the
  longitudinal perf trajectory behind ``repro-emi perf``;
* :func:`compare` / :class:`RegressionVerdict` — the per-span and
  per-counter delta table between two runs (``perf diff``, the flight
  recorder's verdict);
* :func:`to_chrome_trace` — exporter to the Chrome Trace Event Format
  (Perfetto, ``about://tracing``);
* :class:`EventBus` / :class:`TelemetryEvent` — the *streaming* half:
  typed span/counter/gauge/stage/log events fanned out live to
  pluggable subscribers (:class:`JsonlSink`, :class:`EventRingBuffer`,
  :class:`LiveRenderer`) — the CLI's ``--events-out`` / ``--live`` and
  the SSE source of :mod:`repro.service` (``GET /jobs/{id}/events``);
* :class:`ResourceSampler` — background RSS/CPU sampling folded into
  ``proc.*`` gauges;
* :func:`new_run_id` / :func:`is_run_id` — ULID-like run-correlation
  ids joining a run's report, event stream, perf-history row and
  artifacts;
* :func:`render_flight_html` — the self-contained per-run HTML "flight
  recorder" artifact (``repro-emi perf flight``).

Usage::

    from repro import obs

    tracer = obs.enable(meta={"command": "demo"})
    ...                      # run instrumented code
    report = obs.disable().report()
    report.write("metrics.json")
    print(report.table())

Span naming and the counter catalogue are documented in
``docs/OBSERVABILITY.md``.
"""

from .bus import EventBus, EventRingBuffer, JsonlSink, LiveRenderer
from .events import (
    EVENT_KINDS,
    EVENT_SCHEMA_VERSION,
    TelemetryEvent,
    validate_event_dict,
)
from .export import chrome_trace_json, to_chrome_trace
from .flight import render_flight_html
from .history import (
    HistoryRecord,
    PerfHistory,
    default_history_path,
    default_key,
    git_sha,
    host_fingerprint,
)
from .runid import RUN_ID_LENGTH, is_run_id, new_run_id
from .sampler import ResourceSampler, rss_bytes
from .regress import Delta, RegressionVerdict, compare
from .report import RunReport
from .tracer import (
    NULL_TRACER,
    NullTracer,
    Span,
    Tracer,
    disable,
    enable,
    get_tracer,
    set_thread_tracer,
    set_tracer,
)

__all__ = [
    "Span",
    "Tracer",
    "NullTracer",
    "NULL_TRACER",
    "RunReport",
    "get_tracer",
    "set_tracer",
    "set_thread_tracer",
    "enable",
    "disable",
    "PerfHistory",
    "HistoryRecord",
    "default_history_path",
    "default_key",
    "git_sha",
    "host_fingerprint",
    "EVENT_KINDS",
    "EVENT_SCHEMA_VERSION",
    "TelemetryEvent",
    "validate_event_dict",
    "EventBus",
    "EventRingBuffer",
    "JsonlSink",
    "LiveRenderer",
    "ResourceSampler",
    "rss_bytes",
    "render_flight_html",
    "Delta",
    "RegressionVerdict",
    "compare",
    "to_chrome_trace",
    "chrome_trace_json",
    "new_run_id",
    "is_run_id",
    "RUN_ID_LENGTH",
]
