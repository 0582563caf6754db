"""The job manager: the service's one stateful core object.

Owns the job store, the runner and the one job worker — the HTTP shell
is a thin translation layer over exactly this API, and the tests/smoke
drive it both through HTTP and directly.

Submission path: parse + validate the payload (rejections never occupy
the worker), mint the content-addressed job id, create the per-job
artifact directory and telemetry fabric, enqueue.  Jobs run one at a
time in submission order: on a 2-core host a second worker thread made
4 queued flow jobs take about 1.8 times as long (GIL and BLAS
contention; docs/SERVICE.md).

Shutdown path: :meth:`close` stops accepting, then either lets the
queue drain or cancels every queued and running job (running jobs stop
at their next stage checkpoint), and joins the non-daemon worker before
returning, so callers can rely on all artifacts being flushed.
"""

from __future__ import annotations

import queue
import threading
from typing import Any

from ..obs import EventRingBuffer, EventBus, JsonlSink, new_run_id
from .config import ServiceConfig
from .errors import ServiceClosedError, UnknownJobError
from .jobs import Job, parse_job_payload
from .runner import JobRunner

__all__ = ["JobManager"]


class JobManager:
    """Job store + the one job worker of a service instance."""

    def __init__(self, config: ServiceConfig | None = None):
        self.config = config or ServiceConfig()
        self.runner = JobRunner(self.config)
        self._jobs: dict[str, Job] = {}
        self._lock = threading.Lock()
        self._closed = False
        self._queue: queue.Queue[Job | None] = queue.Queue()
        self.config.jobs_root().mkdir(parents=True, exist_ok=True)
        if self.config.cache_dir is not None:
            self.config.cache_dir.mkdir(parents=True, exist_ok=True)
        self._worker = threading.Thread(
            target=self._work, name="emi-svc-worker", daemon=False
        )
        self._worker.start()

    def _work(self) -> None:
        while (job := self._queue.get()) is not None:
            self.runner.run(job)

    # -- submission --------------------------------------------------------

    def submit(self, payload: Any) -> Job:
        """Validate and enqueue one job; returns it in ``queued`` state.

        A refused submission leaves no job in the store.

        Raises:
            PayloadError: malformed payload or failing design check.
            ServiceClosedError: shutting down (503-shaped), or
                ``config.max_queued`` jobs are already waiting
                (429-shaped, ``retryable=True``).
        """
        request = parse_job_payload(
            payload, default_timeout_s=self.config.job_timeout_s
        )
        with self._lock:
            if self._closed:
                raise ServiceClosedError("service is shutting down")
            if self._queue.qsize() >= self.config.max_queued:
                raise ServiceClosedError(
                    f"job queue is full ({self.config.max_queued} waiting)",
                    retryable=True,
                )
            seq = len(self._jobs) + 1
            job_id = f"j{seq:04d}-{request.digest[:12]}"
            artifacts_dir = self.config.jobs_root().joinpath(job_id)
            artifacts_dir.mkdir(parents=True, exist_ok=True)
            job = Job(
                id=job_id,
                seq=seq,
                request=request,
                artifacts_dir=artifacts_dir,
                bus=EventBus(),
                ring=EventRingBuffer(capacity=self.config.event_buffer),
                sink=JsonlSink(artifacts_dir / "events.jsonl"),
                run_id=new_run_id(),
            )
            self._jobs[job_id] = job
            self._queue.put(job)
        return job

    # -- queries -----------------------------------------------------------

    def get(self, job_id: str) -> Job:
        """The job of that id.

        Raises:
            UnknownJobError: the id was never issued.
        """
        with self._lock:
            job = self._jobs.get(job_id)
        if job is None:
            raise UnknownJobError(f"unknown job id {job_id!r}")
        return job

    def jobs(self) -> list[Job]:
        """Every known job, in submission order."""
        with self._lock:
            return list(self._jobs.values())

    def cancel(self, job_id: str) -> Job:
        """Request cancellation (see :meth:`Job.request_cancel`).

        Raises:
            UnknownJobError: the id was never issued.
        """
        job = self.get(job_id)
        job.request_cancel()
        return job

    # -- shutdown ----------------------------------------------------------

    @property
    def closed(self) -> bool:
        """Whether :meth:`close` has run."""
        with self._lock:
            return self._closed

    def close(self, drain: bool = True, timeout: float | None = None) -> None:
        """Stop accepting jobs and join the worker.

        Args:
            drain: finish queued jobs (True) or cancel every queued and
                running job (False; a running job stops at its next
                stage checkpoint).
            timeout: join timeout [s] (``None`` waits until the queue is
                empty — jobs are finite thanks to the per-job timeout).
        """
        with self._lock:
            if not self._closed:
                self._queue.put(None)  # the worker stops after the queued jobs
            self._closed = True
            jobs = list(self._jobs.values())
        if not drain:
            for job in jobs:
                job.request_cancel()
        self._worker.join(timeout=timeout)
