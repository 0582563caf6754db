"""The typed telemetry event model — the unit of the streaming obs layer.

Where the profile tree (:mod:`repro.obs.tracer`) *aggregates* — one node
per span name, counters summed — the event stream *narrates*: every span
entry/exit, counter bump, gauge write, flow stage transition and log
message becomes one immutable :class:`TelemetryEvent` with a
process-monotonic sequence number and a wall-clock timestamp.  The
:class:`~repro.obs.EventBus` fans events out to subscribers (JSONL sink,
live console renderer, in-memory ring buffer — the SSE source of
:mod:`repro.service`'s ``GET /jobs/{id}/events``); this module only
defines the payload and its schema.

Event kinds (``TelemetryEvent.kind``):

* ``span_open`` / ``span_close`` — one tracer span entry / exit;
  ``name`` is the span name, ``path`` the ``/``-joined open-span path
  (``run/flow.rules/coupling.field_solve``); ``span_close`` carries the entry's
  wall time in ``value`` [s].
* ``counter`` — one counter increment; ``value`` is the increment
  (not the running total).
* ``gauge`` — one gauge write; ``value`` is the new value.
* ``stage`` — a flow stage transition (``check``, ``sensitivity``,
  ``rules``, ``placement``, ``prediction``, ``verification``);
  ``attrs["status"]`` is ``start`` / ``done`` / ``error``.
* ``log`` — free-form structured messages (e.g. the job service's
  ``service.job_queued`` / ``service.job_finished`` lifecycle events).

The JSONL on-disk form (one :meth:`TelemetryEvent.to_dict` object per
line, written by ``--events-out``) is validated by
:func:`validate_event_dict`; ``make events-smoke`` holds every emitted
line to it and to strict ``seq`` monotonicity.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

__all__ = [
    "EVENT_KINDS",
    "EVENT_SCHEMA_VERSION",
    "TelemetryEvent",
    "validate_event_dict",
]

EVENT_SCHEMA_VERSION = 1

#: The closed set of event kinds; :meth:`EventBus.publish` rejects others.
EVENT_KINDS = frozenset(
    {"span_open", "span_close", "counter", "gauge", "stage", "log"}
)


@dataclass(frozen=True)
class TelemetryEvent:
    """One immutable streamed observation.

    Attributes:
        seq: bus-assigned sequence number, strictly monotonic per bus
            (dimensionless count; gap-free for a single bus lifetime).
        ts: wall-clock timestamp, seconds since the epoch [s].
        kind: one of :data:`EVENT_KINDS`.
        name: what the event is about (span name, counter name, stage
            name, …).
        path: ``/``-joined open-span path at emission time (empty when
            no span context applies, e.g. sampler gauges).
        value: the numeric payload — increment for ``counter``, value
            for ``gauge``, elapsed seconds for ``span_close``; ``None``
            for kinds without one.
        attrs: free-form structured attributes (stage status, job id,
            …).  Values must be JSON-serialisable.
        run_id: correlation id of the run that emitted the event
            (stamped by the bus when one is set; empty otherwise).
            Joins the event stream to the run's ``RunReport.meta``,
            perf-history row and artifacts.
    """

    seq: int
    ts: float
    kind: str
    name: str
    path: str = ""
    value: float | None = None
    attrs: dict[str, Any] = field(default_factory=dict)
    run_id: str = ""

    def to_dict(self) -> dict[str, Any]:
        """The JSONL line payload (schema-versioned, stable key set)."""
        out: dict[str, Any] = {
            "schema": EVENT_SCHEMA_VERSION,
            "seq": self.seq,
            "ts": self.ts,
            "kind": self.kind,
            "name": self.name,
        }
        if self.path:
            out["path"] = self.path
        if self.value is not None:
            out["value"] = self.value
        if self.attrs:
            out["attrs"] = dict(self.attrs)
        if self.run_id:
            out["run_id"] = self.run_id
        return out

    @classmethod
    def from_dict(cls, data: dict[str, Any]) -> "TelemetryEvent":
        """Rebuild an event from one parsed JSONL line.

        Raises:
            ValueError: when the payload fails :func:`validate_event_dict`.
        """
        problems = validate_event_dict(data)
        if problems:
            raise ValueError(f"invalid telemetry event: {'; '.join(problems)}")
        value = data.get("value")
        return cls(
            seq=int(data["seq"]),
            ts=float(data["ts"]),
            kind=str(data["kind"]),
            name=str(data["name"]),
            path=str(data.get("path", "")),
            value=None if value is None else float(value),
            attrs=dict(data.get("attrs", {})),
            run_id=str(data.get("run_id", "")),
        )


def validate_event_dict(data: Any) -> list[str]:
    """Schema-check one parsed JSONL event line.

    Returns:
        A list of human-readable problems — empty when the payload is a
        valid event.  Unknown *extra* keys are tolerated (forward
        compatibility); wrong types and unknown kinds are not.
    """
    problems: list[str] = []
    if not isinstance(data, dict):
        return [f"event must be an object, got {type(data).__name__}"]
    schema = data.get("schema")
    if not isinstance(schema, int) or isinstance(schema, bool):
        problems.append("schema must be an integer")
    elif schema > EVENT_SCHEMA_VERSION:
        problems.append(f"schema {schema} is newer than {EVENT_SCHEMA_VERSION}")
    seq = data.get("seq")
    if not isinstance(seq, int) or isinstance(seq, bool) or seq < 0:
        problems.append("seq must be a non-negative integer")
    ts = data.get("ts")
    if not isinstance(ts, (int, float)) or isinstance(ts, bool):
        problems.append("ts must be a number")
    kind = data.get("kind")
    if kind not in EVENT_KINDS:
        problems.append(f"kind must be one of {sorted(EVENT_KINDS)}, got {kind!r}")
    name = data.get("name")
    if not isinstance(name, str) or not name:
        problems.append("name must be a non-empty string")
    if "path" in data and not isinstance(data["path"], str):
        problems.append("path must be a string")
    if "value" in data and data["value"] is not None:
        value = data["value"]
        if not isinstance(value, (int, float)) or isinstance(value, bool):
            problems.append("value must be a number or null")
    if "attrs" in data and not isinstance(data["attrs"], dict):
        problems.append("attrs must be an object")
    if "run_id" in data and not isinstance(data["run_id"], str):
        problems.append("run_id must be a string")
    return problems
