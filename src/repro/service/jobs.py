"""The job model: payloads, lifecycle states and per-job telemetry.

One :class:`Job` is one run of the paper's design flow on behalf of an
HTTP client.  The lifecycle is a small state machine::

    queued ──> running ──> succeeded
       │          ├──────> failed      (error / precheck / timeout)
       └──────────┴──────> cancelled   (DELETE /jobs/{id})

``queued -> cancelled`` is immediate; ``running -> cancelled`` is
cooperative — the runner polls :meth:`Job.checkpoint` between flow
stages, so a running job stops at the next stage boundary.

Every job owns its own telemetry fabric, wired at submission time:

* an :class:`~repro.obs.EventBus` the job's tracer publishes into;
* an :class:`~repro.obs.EventRingBuffer` — the SSE endpoint's cursor
  source (``GET /jobs/{id}/events`` resumes via ``since(seq)``);
* a :class:`~repro.obs.JsonlSink` persisting the full stream as the
  ``events.jsonl`` artifact;
* a :class:`_StageWatch` deriving the stage map and progress fraction
  that ``GET /jobs/{id}`` snapshots — status is *derived from the event
  stream*, never duplicated by hand.

Payload shape (``POST /jobs``, full reference in ``docs/SERVICE.md``)::

    {"design": {"kind": "buck", "params": {...}},   # flow job, or
     "board": "BOARD 70 50\\n...",                   # board job
     "options": {"k_threshold": 0.01, "sensitivity_threshold_db": 3.0,
                 "precheck": true, "timeout_s": 300}}

Job ids are content-addressed: ``j<seq>-<sha256(payload)[:12]>`` — the
hash names the artifact directory, the sequence keeps identical
resubmissions distinct.
"""

from __future__ import annotations

import hashlib
import json
import threading
import time
from dataclasses import dataclass, field
from datetime import datetime, timezone
from pathlib import Path
from typing import Any

from ..check import run_checks
from ..converters import BuckConverterDesign
from ..io import AsciiFormatError, read_problem
from ..obs import EventBus, EventRingBuffer, JsonlSink, TelemetryEvent
from ..placement import PlacementProblem
from .errors import JobCancelled, JobTimeout, PayloadError

__all__ = [
    "JobState",
    "JobOptions",
    "JobRequest",
    "Job",
    "TERMINAL_STATES",
    "FLOW_STAGES",
    "BOARD_STAGES",
    "content_hash",
    "parse_job_payload",
]


class JobState:
    """The closed set of lifecycle states (plain strings on the wire)."""

    QUEUED = "queued"
    RUNNING = "running"
    SUCCEEDED = "succeeded"
    FAILED = "failed"
    CANCELLED = "cancelled"


#: States a job never leaves.
TERMINAL_STATES = frozenset(
    {JobState.SUCCEEDED, JobState.FAILED, JobState.CANCELLED}
)

#: Stage sequence of a full-flow (design) job, in execution order.
FLOW_STAGES: tuple[str, ...] = (
    "check",
    "sensitivity",
    "rules",
    "placement",
    "verification",
)

#: Stage sequence of a board (check + place + DRC) job.
BOARD_STAGES: tuple[str, ...] = ("check", "placement", "verification")

#: ``design.params`` keys a flow job may override (all numeric knobs of
#: :class:`~repro.converters.BuckConverterDesign`).
DESIGN_PARAM_KEYS = frozenset(
    {
        "input_voltage",
        "output_voltage",
        "output_current",
        "switching_frequency",
        "t_rise",
        "t_fall",
        "board_width",
        "board_height",
        "hot_loop_esl",
    }
)

_MAX_TIMEOUT_S = 3600.0
_MAX_BOARD_BYTES = 1 << 20


def content_hash(payload: dict[str, Any]) -> str:
    """SHA-256 of the canonical JSON form of a job payload."""
    canonical = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


def _utc_now() -> str:
    return datetime.now(timezone.utc).isoformat(timespec="milliseconds")


@dataclass(frozen=True)
class JobOptions:
    """Validated flow options of one job (defaults match the CLI)."""

    k_threshold: float = 0.01
    sensitivity_threshold_db: float = 3.0
    precheck: bool = True
    timeout_s: float = 300.0

    def to_dict(self) -> dict[str, Any]:
        """The snapshot/echo form (stable key set)."""
        return {
            "k_threshold": self.k_threshold,
            "sensitivity_threshold_db": self.sensitivity_threshold_db,
            "precheck": self.precheck,
            "timeout_s": self.timeout_s,
        }


@dataclass(frozen=True)
class JobRequest:
    """A parsed, validated submission (see :func:`parse_job_payload`).

    Attributes:
        kind: ``"flow"`` (buck design through the full chain) or
            ``"board"`` (check + place + DRC of an ASCII board file).
        design_params: constructor overrides for the flow job's design.
        board_text: the ASCII problem text of a board job.
        options: validated flow options.
        digest: SHA-256 content hash of the raw payload.
    """

    kind: str
    options: JobOptions
    digest: str
    design_params: dict[str, float] = field(default_factory=dict)
    board_text: str = ""

    def build_design(self) -> BuckConverterDesign:
        """A fresh converter design for a flow job."""
        return BuckConverterDesign(**self.design_params)

    def build_problem(self) -> PlacementProblem:
        """A fresh placement problem for a board job."""
        return read_problem(self.board_text)

    def stage_plan(self) -> tuple[str, ...]:
        """The stages this job is expected to pass through, in order."""
        if self.kind == "board":
            return BOARD_STAGES
        if self.options.precheck:
            return FLOW_STAGES
        return FLOW_STAGES[1:]


def _require_mapping(value: Any, where: str) -> dict[str, Any]:
    if not isinstance(value, dict):
        raise PayloadError(f"{where} must be a JSON object, got {type(value).__name__}")
    return value


def _number(value: Any, where: str) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise PayloadError(f"{where} must be a number, got {type(value).__name__}")
    return float(value)


def _parse_options(data: dict[str, Any], default_timeout_s: float) -> JobOptions:
    raw = _require_mapping(data.get("options", {}), "options")
    known = {"k_threshold", "sensitivity_threshold_db", "precheck", "timeout_s"}
    unknown = sorted(set(raw) - known)
    if unknown:
        raise PayloadError(
            f"unknown options key(s): {', '.join(unknown)} "
            f"(known: {', '.join(sorted(known))})"
        )
    k_threshold = _number(raw.get("k_threshold", 0.01), "options.k_threshold")
    if not 0.0 < k_threshold <= 1.0:
        raise PayloadError("options.k_threshold must be in (0, 1]")
    sens = _number(
        raw.get("sensitivity_threshold_db", 3.0),
        "options.sensitivity_threshold_db",
    )
    precheck = raw.get("precheck", True)
    if not isinstance(precheck, bool):
        raise PayloadError("options.precheck must be a boolean")
    timeout_s = _number(raw.get("timeout_s", default_timeout_s), "options.timeout_s")
    if not 0.0 < timeout_s <= _MAX_TIMEOUT_S:
        raise PayloadError(f"options.timeout_s must be in (0, {_MAX_TIMEOUT_S:g}]")
    return JobOptions(
        k_threshold=k_threshold,
        sensitivity_threshold_db=sens,
        precheck=precheck,
        timeout_s=timeout_s,
    )


def _parse_design(data: dict[str, Any]) -> dict[str, float]:
    design = _require_mapping(data["design"], "design")
    unknown = sorted(set(design) - {"kind", "params"})
    if unknown:
        raise PayloadError(f"unknown design key(s): {', '.join(unknown)}")
    kind = design.get("kind", "buck")
    if kind != "buck":
        raise PayloadError(f"design.kind must be 'buck', got {kind!r}")
    params = _require_mapping(design.get("params", {}), "design.params")
    unknown = sorted(set(params) - DESIGN_PARAM_KEYS)
    if unknown:
        raise PayloadError(
            f"unknown design.params key(s): {', '.join(unknown)} "
            f"(known: {', '.join(sorted(DESIGN_PARAM_KEYS))})"
        )
    values = {
        key: _number(value, f"design.params.{key}") for key, value in params.items()
    }
    try:
        BuckConverterDesign(**values)
    except ValueError as exc:
        raise PayloadError(f"invalid design parameters: {exc}") from exc
    return values


def _parse_board(data: dict[str, Any]) -> str:
    board = data["board"]
    if not isinstance(board, str) or not board.strip():
        raise PayloadError("board must be a non-empty string (ASCII problem text)")
    if len(board.encode("utf-8", errors="replace")) > _MAX_BOARD_BYTES:
        raise PayloadError(f"board text exceeds {_MAX_BOARD_BYTES} bytes")
    try:
        problem = read_problem(board)
    except AsciiFormatError as exc:
        raise PayloadError(f"board does not parse: {exc}") from exc
    report = run_checks(problem=problem, subject="payload.board")
    if report.errors():
        raise PayloadError(
            f"board fails the design check with {len(report.errors())} error(s)",
            check_report=report,
        )
    return board


def parse_job_payload(
    data: Any, default_timeout_s: float = 300.0
) -> JobRequest:
    """Validate a ``POST /jobs`` payload into a :class:`JobRequest`.

    Exactly one of ``design`` (flow job) and ``board`` (board job) must
    be present.  Board payloads are statically validated *here*, at
    submission time, so a broken board is rejected with the
    :class:`~repro.check.CheckReport` before it ever occupies a worker.

    Raises:
        PayloadError: on any shape, type, range or design-check problem.
    """
    data = _require_mapping(data, "payload")
    unknown = sorted(set(data) - {"design", "board", "options"})
    if unknown:
        raise PayloadError(
            f"unknown payload key(s): {', '.join(unknown)} "
            "(known: design, board, options)"
        )
    has_design = "design" in data
    has_board = "board" in data
    if has_design == has_board:
        raise PayloadError("payload must carry exactly one of 'design' or 'board'")
    options = _parse_options(data, default_timeout_s)
    digest = content_hash(data)
    if has_board:
        return JobRequest(
            kind="board",
            options=options,
            digest=digest,
            board_text=_parse_board(data),
        )
    return JobRequest(
        kind="flow",
        options=options,
        digest=digest,
        design_params=_parse_design(data),
    )


class _StageWatch:
    """Bus subscriber deriving the stage map from ``stage`` events.

    The snapshot endpoint's ``stages``/``progress`` fields come from
    here — the job's progress story is read off the same event stream
    the SSE endpoint serves, so the two can never disagree.
    """

    def __init__(self, plan: tuple[str, ...]):
        self._lock = threading.Lock()
        self._plan = plan
        self._status: dict[str, str] = {}
        self._current = ""

    def __call__(self, event: TelemetryEvent) -> None:
        if event.kind != "stage":
            return
        status = str(event.attrs.get("status", "start"))
        with self._lock:
            if status == "start":
                self._status.setdefault(event.name, "running")
                self._current = event.name
            else:
                self._status[event.name] = status
                if self._current == event.name:
                    self._current = ""

    def snapshot(self) -> tuple[dict[str, str], str, float]:
        """``(stage -> status, current stage, done fraction of the plan)``."""
        with self._lock:
            status = dict(self._status)
            current = self._current
        credit = {"done": 1.0, "running": 0.5, "error": 0.5}
        done = sum(credit.get(status.get(name, ""), 0.0) for name in self._plan)
        progress = done / len(self._plan) if self._plan else 0.0
        return status, current, progress


@dataclass
class Job:
    """One submitted job: request, lifecycle state and telemetry fabric.

    ``run_id`` is the job's correlation id, minted by the manager at
    submission and stamped onto the job's bus before any event flows —
    the same id lands in every telemetry event, the ``run_report.json``
    meta, the perf-relevant artifacts and the ``X-Repro-Run-Id`` HTTP
    header, so any artifact of a job joins to any other.
    """

    id: str
    seq: int
    request: JobRequest
    artifacts_dir: Path
    bus: EventBus
    ring: EventRingBuffer
    sink: JsonlSink
    run_id: str = ""
    state: str = JobState.QUEUED
    submitted_at: str = field(default_factory=_utc_now)
    started_at: str | None = None
    finished_at: str | None = None
    queue_wait_s: float | None = None
    error: dict[str, str] | None = None
    result: dict[str, Any] | None = None
    _lock: threading.Lock = field(default_factory=threading.Lock, repr=False)
    _cancel: threading.Event = field(default_factory=threading.Event, repr=False)
    _deadline: float | None = field(default=None, repr=False)
    _queued_monotonic: float = field(default_factory=time.monotonic, repr=False)
    _watch: _StageWatch = field(init=False, repr=False)

    def __post_init__(self) -> None:
        self._watch = _StageWatch(self.request.stage_plan())
        if self.run_id and not self.bus.run_id:
            self.bus.run_id = self.run_id
        self.bus.subscribe(self.ring)
        self.bus.subscribe(self.sink)
        self.bus.subscribe(self._watch)
        self.bus.publish(
            "log",
            "service.job_queued",
            attrs={"job_id": self.id, "kind": self.request.kind},
        )

    # -- lifecycle ---------------------------------------------------------

    def mark_running(self) -> bool:
        """``queued -> running`` (False when the job was cancelled first).

        Stamps :attr:`queue_wait_s` — the monotonic delta between
        submission and worker pickup — for the snapshot and the
        ``service.queue_wait_s`` gauge of the job's run report.
        """
        with self._lock:
            if self.state != JobState.QUEUED:
                return False
            self.state = JobState.RUNNING
            self.started_at = _utc_now()
            self.queue_wait_s = time.monotonic() - self._queued_monotonic
            self._deadline = time.monotonic() + self.request.options.timeout_s
        self.bus.publish(
            "log",
            "service.job_started",
            attrs={"job_id": self.id, "queue_wait_s": self.queue_wait_s},
        )
        return True

    def finish(
        self,
        state: str,
        error: dict[str, str] | None = None,
        result: dict[str, Any] | None = None,
    ) -> None:
        """Enter a terminal state (idempotent; the first transition wins)."""
        if state not in TERMINAL_STATES:
            raise ValueError(f"not a terminal state: {state!r}")
        with self._lock:
            if self.state in TERMINAL_STATES:
                return
            self.state = state
            self.finished_at = _utc_now()
            self.error = error
            if result is not None:
                self.result = result
        self.bus.publish(
            "log",
            "service.job_finished",
            attrs={"job_id": self.id, "state": state},
        )

    def request_cancel(self) -> bool:
        """Flag the job for cancellation.

        A queued job transitions to ``cancelled`` immediately; a running
        job stops at its next stage checkpoint.  Returns False when the
        job is already terminal.
        """
        with self._lock:
            if self.state in TERMINAL_STATES:
                return False
            was_queued = self.state == JobState.QUEUED
        self._cancel.set()
        if was_queued:
            self.finish(
                JobState.CANCELLED,
                error={"kind": "cancelled", "message": "cancelled while queued"},
            )
        return True

    @property
    def cancel_event(self) -> threading.Event:
        """The cancellation flag (set by ``DELETE``, polled by the runner)."""
        return self._cancel

    def checkpoint(self) -> None:
        """Raise if the job must stop (called between flow stages).

        Raises:
            JobCancelled: cancellation was requested.
            JobTimeout: the per-job deadline has passed.
        """
        if self._cancel.is_set():
            raise JobCancelled(f"job {self.id} cancelled")
        deadline = self._deadline
        if deadline is not None and time.monotonic() > deadline:
            raise JobTimeout(
                f"job {self.id} exceeded its {self.request.options.timeout_s:g} s timeout"
            )

    def is_terminal(self) -> bool:
        """Whether the job reached a terminal state."""
        with self._lock:
            return self.state in TERMINAL_STATES

    # -- artifacts & snapshots ---------------------------------------------

    def artifact_names(self) -> list[str]:
        """Sorted file names currently present in the artifact directory."""
        if not self.artifacts_dir.is_dir():
            return []
        return sorted(p.name for p in self.artifacts_dir.iterdir() if p.is_file())

    def snapshot(self) -> dict[str, Any]:
        """The ``GET /jobs/{id}`` JSON body (derived, never cached)."""
        with self._lock:
            state = self.state
            started = self.started_at
            finished = self.finished_at
            queue_wait = self.queue_wait_s
            error = dict(self.error) if self.error else None
            result = dict(self.result) if self.result else None
        stages, current, progress = self._watch.snapshot()
        return {
            "id": self.id,
            "run_id": self.run_id,
            "kind": self.request.kind,
            "state": state,
            "content_hash": self.request.digest,
            "submitted_at": self.submitted_at,
            "queued_at": self.submitted_at,
            "started_at": started,
            "finished_at": finished,
            "queue_wait_s": queue_wait,
            "options": self.request.options.to_dict(),
            "stages": stages,
            "current_stage": current,
            "progress": round(progress, 4),
            "error": error,
            "result": result,
            "artifacts": self.artifact_names(),
            "last_seq": self.bus.last_seq,
            "events_dropped": self.ring.dropped,
        }
