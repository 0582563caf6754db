"""The HTTP/JSON shell: stdlib ``ThreadingHTTPServer`` over the manager.

Routes (full reference with payloads in ``docs/SERVICE.md``):

====== =============================== =====================================
POST   ``/jobs``                       submit a job (202; 400/429/503)
GET    ``/jobs``                       list every job snapshot
GET    ``/jobs/{id}``                  one job snapshot (404)
DELETE ``/jobs/{id}``                  request cancellation (404)
GET    ``/jobs/{id}/events``           live SSE stream (``?since=SEQ`` or
                                       ``Last-Event-ID`` resume cursor)
GET    ``/jobs/{id}/artifacts``        artifact name list
GET    ``/jobs/{id}/artifacts/{name}`` one artifact's bytes (404)
GET    ``/healthz``                    liveness probe
====== =============================== =====================================

Every job-scoped response (the ``POST /jobs`` 202, job snapshots,
cancellation) carries the job's run-correlation id in an
``X-Repro-Run-Id`` header — the same id stamped into the job's
``RunReport.meta``, every telemetry event, and its artifact stream.

The SSE stream is backed by the job's
:class:`~repro.obs.EventRingBuffer` ``since()`` cursor: each telemetry
event goes out as one ``event: telemetry`` frame whose ``id:`` is the
bus sequence number, so reconnecting clients resume gap-free via
``Last-Event-ID`` as long as the ring has not overflowed (a consumer
that does fall behind sees the seq jump).  When the job reaches a
terminal state the stream closes with one final ``event: end`` frame
carrying the job snapshot.

Every handler thread is a ``ThreadingHTTPServer`` daemon thread; the
blocking SSE loop additionally watches the server's ``stopping`` flag so
a graceful shutdown is never held open by an idle subscriber.
"""

from __future__ import annotations

import json
import re
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Any
from urllib.parse import parse_qs, urlsplit

from .config import ServiceConfig
from .errors import PayloadError, ServiceClosedError, UnknownJobError
from .jobs import Job
from .manager import JobManager

__all__ = ["EmiServiceServer", "EmiService", "ServiceRequestHandler"]

_MAX_BODY_BYTES = 4 << 20
_SSE_POLL_S = 0.05

_ARTIFACT_TYPES = {
    ".json": "application/json",
    ".jsonl": "application/x-ndjson",
    ".svg": "image/svg+xml",
    ".html": "text/html; charset=utf-8",
    ".md": "text/markdown; charset=utf-8",
    ".csv": "text/csv",
    ".txt": "text/plain; charset=utf-8",
}

_JOB_ROUTE = re.compile(r"^/jobs/([A-Za-z0-9-]+)$")
_EVENTS_ROUTE = re.compile(r"^/jobs/([A-Za-z0-9-]+)/events$")
_ARTIFACTS_ROUTE = re.compile(r"^/jobs/([A-Za-z0-9-]+)/artifacts$")
_ARTIFACT_ROUTE = re.compile(r"^/jobs/([A-Za-z0-9-]+)/artifacts/([A-Za-z0-9._-]+)$")


class EmiServiceServer(ThreadingHTTPServer):
    """``ThreadingHTTPServer`` carrying the manager and shutdown flag."""

    daemon_threads = True
    allow_reuse_address = True

    def __init__(self, config: ServiceConfig, manager: JobManager | None = None):
        self.config = config
        self.manager = manager if manager is not None else JobManager(config)
        #: Set when a graceful shutdown begins; SSE loops observe it.
        self.stopping = threading.Event()
        super().__init__((config.host, config.port), ServiceRequestHandler)

    @property
    def url(self) -> str:
        """The reachable base URL (real port, also when bound to 0)."""
        host, port = self.server_address[0], self.server_address[1]
        return f"http://{host}:{port}"


class ServiceRequestHandler(BaseHTTPRequestHandler):
    """Routes HTTP verbs onto the :class:`JobManager` API."""

    server: EmiServiceServer
    protocol_version = "HTTP/1.1"
    server_version = "repro-emi-service"

    def log_message(self, format: str, *args: Any) -> None:
        """Silence per-request stderr logging."""

    # -- plumbing ----------------------------------------------------------

    def _send_json(
        self,
        code: int,
        payload: dict[str, Any],
        headers: dict[str, str] | None = None,
    ) -> None:
        body = (json.dumps(payload, sort_keys=True) + "\n").encode("utf-8")
        self.send_response(code)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        for name, value in (headers or {}).items():
            self.send_header(name, value)
        self.end_headers()
        self.wfile.write(body)

    @staticmethod
    def _run_id_headers(job: Job) -> dict[str, str] | None:
        return {"X-Repro-Run-Id": job.run_id} if job.run_id else None

    def _send_error_json(self, code: int, message: str, **extra: Any) -> None:
        self._send_json(code, {"error": message, **extra})

    def _job_or_404(self, job_id: str) -> Job | None:
        try:
            return self.server.manager.get(job_id)
        except UnknownJobError:
            self._send_error_json(404, f"unknown job id {job_id!r}")
            return None

    # -- verbs -------------------------------------------------------------

    def do_GET(self) -> None:  # noqa: N802 - http.server API
        split = urlsplit(self.path)
        path = split.path
        if path == "/healthz":
            manager = self.server.manager
            self._send_json(
                200,
                {
                    "status": "shutting-down" if manager.closed else "ok",
                    "jobs": len(manager.jobs()),
                },
            )
            return
        if path == "/jobs":
            snapshots = [job.snapshot() for job in self.server.manager.jobs()]
            self._send_json(200, {"jobs": snapshots})
            return
        match = _JOB_ROUTE.match(path)
        if match:
            job = self._job_or_404(match.group(1))
            if job is not None:
                self._send_json(200, job.snapshot(), headers=self._run_id_headers(job))
            return
        match = _EVENTS_ROUTE.match(path)
        if match:
            job = self._job_or_404(match.group(1))
            if job is not None:
                self._stream_events(job, urlsplit(self.path).query)
            return
        match = _ARTIFACTS_ROUTE.match(path)
        if match:
            job = self._job_or_404(match.group(1))
            if job is not None:
                self._send_json(200, {"artifacts": job.artifact_names()})
            return
        match = _ARTIFACT_ROUTE.match(path)
        if match:
            job = self._job_or_404(match.group(1))
            if job is not None:
                self._send_artifact(job, match.group(2))
            return
        self._send_error_json(404, f"no route for GET {path}")

    def do_POST(self) -> None:  # noqa: N802 - http.server API
        if urlsplit(self.path).path != "/jobs":
            self._send_error_json(404, f"no route for POST {self.path}")
            return
        try:
            length = int(self.headers.get("Content-Length", "0"))
        except ValueError:
            self._send_error_json(411, "Content-Length required")
            return
        if length <= 0:
            self._send_error_json(411, "Content-Length required")
            return
        if length > _MAX_BODY_BYTES:
            self._send_error_json(413, f"body exceeds {_MAX_BODY_BYTES} bytes")
            return
        try:
            payload = json.loads(self.rfile.read(length).decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            self._send_error_json(400, f"body is not valid JSON: {exc}")
            return
        try:
            job = self.server.manager.submit(payload)
        except PayloadError as exc:
            extra: dict[str, Any] = {}
            if exc.check_report is not None:
                extra["check_report"] = exc.check_report.to_dict()
            self._send_error_json(400, str(exc), **extra)
            return
        except ServiceClosedError as exc:
            self._send_error_json(429 if exc.retryable else 503, str(exc))
            return
        self._send_json(202, job.snapshot(), headers=self._run_id_headers(job))

    def do_DELETE(self) -> None:  # noqa: N802 - http.server API
        match = _JOB_ROUTE.match(urlsplit(self.path).path)
        if not match:
            self._send_error_json(404, f"no route for DELETE {self.path}")
            return
        job = self._job_or_404(match.group(1))
        if job is not None:
            job = self.server.manager.cancel(job.id)
            self._send_json(200, job.snapshot(), headers=self._run_id_headers(job))

    # -- artifacts ---------------------------------------------------------

    def _send_artifact(self, job: Job, name: str) -> None:
        # The allow-list lookup (not path joining) is the traversal guard.
        if name not in job.artifact_names():
            self._send_error_json(404, f"job {job.id} has no artifact {name!r}")
            return
        path = job.artifacts_dir / name
        try:
            body = path.read_bytes()
        except OSError as exc:
            self._send_error_json(500, f"cannot read artifact: {exc}")
            return
        content_type = _ARTIFACT_TYPES.get(path.suffix, "application/octet-stream")
        self.send_response(200)
        self.send_header("Content-Type", content_type)
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)

    # -- SSE ---------------------------------------------------------------

    def _stream_events(self, job: Job, query: str) -> None:
        cursor = 0
        params = parse_qs(query)
        if "since" in params:
            try:
                cursor = int(params["since"][0])
            except ValueError:
                self._send_error_json(400, "since must be an integer sequence number")
                return
        elif self.headers.get("Last-Event-ID"):
            try:
                cursor = int(str(self.headers.get("Last-Event-ID")))
            except ValueError:
                cursor = 0
        self.send_response(200)
        self.send_header("Content-Type", "text/event-stream")
        self.send_header("Cache-Control", "no-cache")
        self.send_header("Connection", "close")
        self.end_headers()
        write, flush = self.wfile.write, self.wfile.flush
        monotonic = time.monotonic
        last_write = monotonic()
        try:
            while True:
                events = job.ring.since(cursor)
                for event in events:
                    data = json.dumps(event.to_dict(), sort_keys=True)
                    frame = f"id: {event.seq}\nevent: telemetry\ndata: {data}\n\n"
                    write(frame.encode("utf-8"))
                    cursor = event.seq
                if events:
                    flush()
                    last_write = monotonic()
                if job.is_terminal() and not job.ring.since(cursor):
                    snapshot = json.dumps(job.snapshot(), sort_keys=True)
                    write(f"event: end\ndata: {snapshot}\n\n".encode())
                    flush()
                    return
                if self.server.stopping.is_set():
                    write(b": server shutting down\n\n")
                    flush()
                    return
                if monotonic() - last_write > 10.0:
                    write(b": keep-alive\n\n")
                    flush()
                    last_write = monotonic()
                time.sleep(_SSE_POLL_S)
        except (BrokenPipeError, ConnectionResetError, OSError):
            return  # client went away; nothing to clean up


class EmiService:
    """Owns one server + its serving thread: the embeddable entry point.

    Usage (tests, the smoke harness, the example client)::

        service = EmiService(ServiceConfig(port=0, ...))
        url = service.start()
        ...  # talk HTTP to url
        service.stop()  # drains jobs, joins the worker, closes the socket
    """

    def __init__(self, config: ServiceConfig | None = None):
        self.config = config or ServiceConfig()
        self.server = EmiServiceServer(self.config)
        self._thread: threading.Thread | None = None

    @property
    def manager(self) -> JobManager:
        """The underlying job manager (for in-process orchestration)."""
        return self.server.manager

    @property
    def url(self) -> str:
        """The reachable base URL."""
        return self.server.url

    def start(self) -> str:
        """Serve in a background thread; returns the base URL."""
        if self._thread is not None:
            return self.url
        thread = threading.Thread(
            target=self.server.serve_forever,
            kwargs={"poll_interval": 0.1},
            name="emi-svc-http",
            daemon=False,
        )
        self._thread = thread
        thread.start()
        return self.url

    def stop(self, drain: bool = True, timeout: float | None = None) -> None:
        """Graceful shutdown: drain jobs, then stop serving (idempotent).

        The manager closes *first* so SSE subscribers observe their
        job's terminal event before the listener goes away; the
        ``stopping`` flag unblocks any stream that would otherwise wait
        forever.
        """
        self.server.stopping.set()
        self.manager.close(drain=drain, timeout=timeout)
        self.server.shutdown()
        thread = self._thread
        if thread is not None:
            thread.join(timeout=10.0)
            self._thread = None
        self.server.server_close()
