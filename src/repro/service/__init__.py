"""EMI-design-as-a-service: an async job layer over ``EmiDesignFlow``.

The package turns the library's design flow into a long-running service:
jobs are submitted as JSON payloads (a buck-converter parameter set or
an ASCII board), validated up front, run one at a time in submission
order by a single job worker, and observable live — every job gets its
own telemetry fabric (:class:`~repro.obs.EventBus` + ring buffer +
JSONL sink) streamed over Server-Sent Events, plus a content-addressed
artifact directory holding the run report, flight recorder, SVGs and
result summary.

Layering: ``service`` sits directly below ``cli`` and above ``core`` —
the HTTP shell (:mod:`repro.service.http`) is a thin translation over
:class:`~repro.service.manager.JobManager`, which tests and embedders
can drive directly.  Start here::

    from repro.service import EmiService, ServiceConfig

    service = EmiService(ServiceConfig(port=0))
    url = service.start()   # e.g. http://127.0.0.1:43117
    ...
    service.stop()          # drains queued jobs, joins the worker

or from a shell: ``repro-emi serve``.  The full API reference lives in
``docs/SERVICE.md``.
"""

from .config import ServiceConfig, default_data_dir
from .errors import (
    JobCancelled,
    JobTimeout,
    PayloadError,
    ServiceClosedError,
    ServiceError,
    UnknownJobError,
)
from .http import EmiService, EmiServiceServer
from .jobs import (
    FLOW_STAGES,
    TERMINAL_STATES,
    Job,
    JobOptions,
    JobRequest,
    JobState,
    content_hash,
    parse_job_payload,
)
from .manager import JobManager
from .runner import JobRunner

__all__ = [
    "FLOW_STAGES",
    "TERMINAL_STATES",
    "EmiService",
    "EmiServiceServer",
    "Job",
    "JobCancelled",
    "JobManager",
    "JobOptions",
    "JobRequest",
    "JobRunner",
    "JobState",
    "JobTimeout",
    "PayloadError",
    "ServiceClosedError",
    "ServiceConfig",
    "ServiceError",
    "UnknownJobError",
    "content_hash",
    "default_data_dir",
    "parse_job_payload",
]
