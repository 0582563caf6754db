"""Executes one job on the service's job worker, with full artifact capture.

The runner is where the service meets :class:`~repro.core.EmiDesignFlow`:
it installs a *per-thread* tracer (``repro.obs.set_thread_tracer``) wired
to the job's own :class:`~repro.obs.EventBus`, runs the flow stage by
stage with a cancellation/timeout checkpoint between stages, and flushes
the artifact set whatever the outcome — on failure the run report is
stamped ``status: error`` exactly like the CLI's traced-failure flush,
so a partial run is always diagnosable.

Artifacts (``<data_dir>/jobs/<job_id>/``):

=====================  ==================================================
``run_report.json``    the job's :class:`~repro.obs.RunReport` (always)
``events.jsonl``       the full telemetry event stream (always)
``flight.html``        self-contained flight recorder (always)
``check_report.json``  the static design check, when one ran
``result.json``        the job's summary outcome, on success
``report.md``          flow job: the design-review Markdown report
``baseline.svg``       flow job: EMI-blind layout
``optimized.svg``      flow job: EMI-aware layout
``spectra.csv``        flow job: predicted spectra of both layouts
``placed.txt``         board job: the placed ASCII problem
``board.svg``          board job: the placed board view
=====================  ==================================================
"""

from __future__ import annotations

import json
import traceback
from collections.abc import Callable
from typing import Any

from ..check import CheckReport, DesignCheckError, run_checks
from ..core import EmiDesignFlow, flow_report
from ..io import write_problem
from ..obs import Tracer, render_flight_html, set_thread_tracer
from ..placement import AutoPlacer, DesignRuleChecker, PlacementError
from ..viz import render_board_svg, spectrum_to_csv
from .config import ServiceConfig
from .errors import JobCancelled, JobTimeout
from .jobs import Job, JobState

__all__ = ["JobRunner"]

#: Test seam: called as ``hook(job, next_stage)`` right before each
#: stage; lets the tests pin a job mid-run deterministically.
StageHook = Callable[[Job, str], None]


class JobRunner:
    """Runs jobs to a terminal state, one at a time on the job worker."""

    def __init__(self, config: ServiceConfig):
        self.config = config
        self.stage_hook: StageHook | None = None

    # -- plumbing ----------------------------------------------------------

    def _checkpoint(self, job: Job, next_stage: str) -> None:
        """Stop-point between stages (cancellation, timeout, test hook)."""
        job.checkpoint()
        hook = self.stage_hook
        if hook is not None:
            hook(job, next_stage)
            job.checkpoint()

    @staticmethod
    def _write_json(job: Job, name: str, payload: dict[str, Any]) -> None:
        path = job.artifacts_dir.joinpath(name)
        path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")

    @staticmethod
    def _write_check_report(job: Job, report: CheckReport) -> None:
        JobRunner._write_json(job, "check_report.json", report.to_dict())

    # -- the one public entry point ----------------------------------------

    def run(self, job: Job) -> None:
        """Execute ``job`` to a terminal state (never raises).

        Must be called on the thread that owns the job for its whole
        run — the per-job tracer's span stack lives on it.
        """
        if not job.mark_running():
            return  # cancelled while queued; nothing to do
        tracer = Tracer(
            meta={
                "command": "service.job",
                "job_id": job.id,
                "kind": job.request.kind,
                "content_hash": job.request.digest,
            },
            bus=job.bus,
            run_id=job.run_id or None,
        )
        if job.queue_wait_s is not None:
            tracer.gauge("service.queue_wait_s", job.queue_wait_s)
        previous = set_thread_tracer(tracer)
        state = JobState.SUCCEEDED
        error: dict[str, str] | None = None
        result: dict[str, Any] | None = None
        try:
            with tracer.span("service.job"):
                if job.request.kind == "board":
                    result = self._run_board(job, tracer)
                else:
                    result = self._run_flow(job, tracer)
        except JobCancelled:
            state = JobState.CANCELLED
            error = {"kind": "cancelled", "message": "cancelled while running"}
        except JobTimeout as exc:
            state = JobState.FAILED
            error = {"kind": "timeout", "message": str(exc)}
        except DesignCheckError as exc:
            state = JobState.FAILED
            self._write_check_report(job, exc.report)
            error = {
                "kind": "design_check",
                "message": f"design check failed with "
                f"{len(exc.report.errors())} error(s); see check_report.json",
            }
        except Exception as exc:
            state = JobState.FAILED
            error = {
                "kind": "exception",
                "error_type": type(exc).__name__,
                "message": str(exc),
                "traceback": traceback.format_exc()[-4000:],
            }
        finally:
            set_thread_tracer(previous)
        self._flush(job, tracer, state, error, result)

    def _flush(
        self,
        job: Job,
        tracer: Tracer,
        state: str,
        error: dict[str, str] | None,
        result: dict[str, Any] | None,
    ) -> None:
        """Write the always-on artifacts and finish the job."""
        status = "ok" if state == JobState.SUCCEEDED else "error"
        extra: dict[str, Any] = {"status": status}
        if error is not None:
            extra["error_type"] = error.get("error_type", error.get("kind", "error"))
        report = tracer.report(extra_meta=extra)
        try:
            report.write(job.artifacts_dir / "run_report.json")
            events = [e.to_dict() for e in job.ring.snapshot()]
            html = render_flight_html(
                report,
                events=events,
                title=f"repro-emi service job {job.id}",
            )
            (job.artifacts_dir / "flight.html").write_text(html, encoding="utf-8")
        except OSError as exc:  # artifact loss must not mask the verdict
            if error is None:
                error = {"kind": "artifact_io", "message": str(exc)}
        job.finish(state, error=error, result=result)
        job.bus.close()

    # -- flow jobs ---------------------------------------------------------

    def _run_flow(self, job: Job, tracer: Tracer) -> dict[str, Any]:
        options = job.request.options
        flow = EmiDesignFlow(
            job.request.build_design(),
            k_threshold=options.k_threshold,
            sensitivity_threshold_db=options.sensitivity_threshold_db,
            cache_dir=self.config.cache_dir,
        )
        if options.precheck:
            self._checkpoint(job, "check")
            self._write_check_report(job, flow.run_precheck())
        self._checkpoint(job, "sensitivity")
        flow.run_sensitivity()
        self._checkpoint(job, "rules")
        rules = flow.derive_rules()
        self._checkpoint(job, "placement")
        baseline_problem, _ = flow.place_baseline()
        optimized_problem, _ = flow.place_optimized()
        self._checkpoint(job, "verification")
        evaluations = {
            "baseline": flow.evaluate("baseline", baseline_problem),
            "optimized": flow.evaluate("optimized", optimized_problem),
        }
        stats = flow.coupling_stats
        tracer.gauge("service.cache_hits", float(stats.hits))
        tracer.gauge("service.cache_misses", float(stats.misses))

        for name, evaluation in evaluations.items():
            (job.artifacts_dir / f"{name}.svg").write_text(
                render_board_svg(evaluation.problem, title=name)
            )
        (job.artifacts_dir / "spectra.csv").write_text(
            spectrum_to_csv({n: e.spectrum for n, e in evaluations.items()})
        )
        (job.artifacts_dir / "report.md").write_text(
            flow_report(flow, evaluations)
        )
        result = {
            "rules_derived": len(rules),
            "relevant_pairs": len(flow.relevant_pairs()),
            "cache": {
                "hits": stats.hits,
                "misses": stats.misses,
                "persistent_hits": stats.persistent_hits,
            },
            "layouts": {
                name: {
                    "violations": evaluation.violations,
                    "worst_margin_db": evaluation.worst_margin_db,
                    "passes_limits": evaluation.passes_limits(),
                }
                for name, evaluation in evaluations.items()
            },
        }
        self._write_json(job, "result.json", result)
        return result

    # -- board jobs --------------------------------------------------------

    def _run_board(self, job: Job, tracer: Tracer) -> dict[str, Any]:
        problem = job.request.build_problem()
        self._checkpoint(job, "check")
        with tracer.stage("check"), tracer.span("service.check"):
            check = run_checks(problem=problem, subject=job.id)
        self._write_check_report(job, check)
        if check.errors():
            raise DesignCheckError(check)
        self._checkpoint(job, "placement")
        with tracer.stage("placement"), tracer.span("service.placement"):
            try:
                placement = AutoPlacer(problem).run()
            except PlacementError as exc:
                raise RuntimeError(f"placement failed: {exc}") from exc
        self._checkpoint(job, "verification")
        with tracer.stage("verification"), tracer.span("service.verification"):
            violations = DesignRuleChecker(problem).check_all()
        (job.artifacts_dir / "placed.txt").write_text(
            write_problem(problem, title=f"placed by service job {job.id}")
        )
        (job.artifacts_dir / "board.svg").write_text(
            render_board_svg(problem, title=job.id)
        )
        result = {
            "placed_count": placement.placed_count,
            "violations": len(violations),
            "runtime_s": placement.runtime_s,
        }
        self._write_json(job, "result.json", result)
        return result
