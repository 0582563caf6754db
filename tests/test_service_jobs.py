"""Unit tests of the service job model: payload parsing, ids, lifecycle."""

import threading

import pytest

from repro.obs import EventBus, EventRingBuffer
from repro.service import (
    Job,
    JobState,
    PayloadError,
    content_hash,
    parse_job_payload,
)
from repro.service.errors import JobCancelled, JobTimeout

SMALL_BOARD = """EMIPLACE 1
TITLE service test board
BOARD 0 GROUND 1
  OUTLINE 0,0 70,0 70,50 0,50
END
COMP CX1 TYPE FilmCapacitorX2 PN CX1-X2 SIZE 18x8x15
COMP LF1 TYPE BobbinChoke PN LF1-CH SIZE 12x10x12
COMP Q1 TYPE PowerMosfet PN Q1-DPAK SIZE 10x9x2.3
NET VIN CX1.1 LF1.1
NET VBUS LF1.2 Q1.D
RULE CLEAR * * 0.5
"""


def make_job(payload=None, **overrides):
    request = parse_job_payload(
        payload or {"design": {"kind": "buck", "params": {}}}
    )
    if overrides:
        from dataclasses import replace

        request = replace(
            request, options=replace(request.options, **overrides)
        )
    import tempfile
    from pathlib import Path

    return Job(
        id="j0001-" + request.digest[:12],
        seq=1,
        request=request,
        artifacts_dir=Path(tempfile.mkdtemp()),
        bus=EventBus(),
        ring=EventRingBuffer(capacity=256),
        sink=None,
    )


class TestContentHash:
    def test_deterministic_and_order_insensitive(self):
        a = {"design": {"kind": "buck", "params": {"t_rise": 1e-8}}}
        b = {"design": {"params": {"t_rise": 1e-8}, "kind": "buck"}}
        assert content_hash(a) == content_hash(b)
        assert len(content_hash(a)) == 64

    def test_distinct_payloads_differ(self):
        a = {"design": {"kind": "buck", "params": {}}}
        b = {"design": {"kind": "buck", "params": {"t_rise": 2e-8}}}
        assert content_hash(a) != content_hash(b)


class TestParseFlowPayload:
    def test_minimal(self):
        request = parse_job_payload({"design": {"kind": "buck", "params": {}}})
        assert request.kind == "flow"
        assert request.options.precheck is True
        assert request.build_design() is not None

    def test_params_flow_into_design(self):
        request = parse_job_payload(
            {"design": {"kind": "buck", "params": {"switching_frequency": 250e3}}}
        )
        assert request.build_design().switching_frequency == 250e3

    def test_options_parsed(self):
        request = parse_job_payload(
            {
                "design": {"kind": "buck", "params": {}},
                "options": {"timeout_s": 10.0, "precheck": False},
            }
        )
        assert request.options.timeout_s == 10.0
        assert "check" not in request.stage_plan()

    @pytest.mark.parametrize(
        "payload",
        [
            "not a mapping",
            {},
            {"design": {"kind": "buck"}, "board": SMALL_BOARD},
            {"design": {"kind": "llc", "params": {}}},
            {"design": {"kind": "buck", "params": {"nonsense": 1.0}}},
            {"design": {"kind": "buck", "params": {"input_voltage": -14.0}}},
            {"design": {"kind": "buck", "params": {}}, "options": {"workers": 1}},
            {"design": {"kind": "buck", "params": {}}, "options": {"workers": 4}},
            {"design": {"kind": "buck", "params": {}}, "options": {"timeout_s": -1}},
            {"design": {"kind": "buck", "params": {}}, "options": {"typo": 1}},
            {"design": {"kind": "buck", "params": {}}, "extra_key": True},
            {"board": 42},
            {"board": ""},
            {"board": "THIS IS NOT EMIPLACE\n"},
        ],
    )
    def test_rejections(self, payload):
        with pytest.raises(PayloadError):
            parse_job_payload(payload)

    def test_rejection_message_names_the_key(self):
        with pytest.raises(PayloadError, match="nonsense"):
            parse_job_payload(
                {"design": {"kind": "buck", "params": {"nonsense": 1.0}}}
            )

    def test_zero_output_current_is_rejected_before_the_run(self):
        # RLOAD = Vout / Iout: a zero load current used to pass parsing
        # and fail the job with ZeroDivisionError when the circuit was built.
        with pytest.raises(PayloadError, match="output current"):
            parse_job_payload(
                {"design": {"kind": "buck", "params": {"output_current": 0.0}}}
            )


class TestParseBoardPayload:
    def test_valid_board(self):
        request = parse_job_payload({"board": SMALL_BOARD})
        assert request.kind == "board"
        assert request.build_problem().components

    def test_failing_board_carries_check_report(self):
        # A keepout swallowing the whole board is a check *error*.
        bad = SMALL_BOARD.replace(
            "END",
            "  KEEPOUT big 0,0 70,50 Z 0 99\nEND",
        )
        with pytest.raises(PayloadError) as excinfo:
            parse_job_payload({"board": bad})
        report = excinfo.value.check_report
        assert report is not None
        assert report.errors()


class TestJobLifecycle:
    def test_happy_path(self):
        job = make_job()
        assert job.state == JobState.QUEUED
        assert job.mark_running()
        assert job.state == JobState.RUNNING
        job.finish(JobState.SUCCEEDED, result={"ok": True})
        assert job.state == JobState.SUCCEEDED
        assert job.is_terminal()
        # finish is idempotent: a late second verdict cannot flip it.
        job.finish(JobState.FAILED, error={"kind": "late"})
        assert job.state == JobState.SUCCEEDED
        assert job.error is None

    def test_cancel_while_queued_is_immediate(self):
        job = make_job()
        assert job.request_cancel()
        assert job.state == JobState.CANCELLED
        assert not job.mark_running()

    def test_cancel_while_running_is_cooperative(self):
        job = make_job()
        job.mark_running()
        assert job.request_cancel()
        assert job.state == JobState.RUNNING  # still running...
        with pytest.raises(JobCancelled):
            job.checkpoint()  # ...until the next checkpoint

    def test_cancel_after_terminal_is_refused(self):
        job = make_job()
        job.mark_running()
        job.finish(JobState.SUCCEEDED)
        assert not job.request_cancel()
        assert job.state == JobState.SUCCEEDED

    def test_timeout_at_checkpoint(self):
        job = make_job(timeout_s=0.000001)
        job.mark_running()
        with pytest.raises(JobTimeout):
            job.checkpoint()

    def test_terminal_event_published(self):
        job = make_job()
        job.mark_running()
        job.finish(JobState.SUCCEEDED)
        names = [e.name for e in job.ring.snapshot()]
        assert "service.job_queued" in names
        assert "service.job_started" in names
        assert "service.job_finished" in names


class TestSnapshot:
    def test_snapshot_shape(self):
        job = make_job()
        snap = job.snapshot()
        assert snap["state"] == "queued"
        assert snap["kind"] == "flow"
        assert snap["content_hash"] == job.request.digest
        assert snap["progress"] == 0.0
        assert snap["error"] is None
        assert isinstance(snap["artifacts"], list)

    def test_stage_progress_from_bus(self):
        job = make_job()
        job.mark_running()
        plan = job.request.stage_plan()
        job.bus.publish("stage", name=plan[0], attrs={"status": "start"})
        snap = job.snapshot()
        assert snap["current_stage"] == plan[0]
        assert snap["stages"][plan[0]] == "running"
        assert 0.0 < snap["progress"] < 1.0
        job.bus.publish("stage", name=plan[0], attrs={"status": "done"})
        assert job.snapshot()["stages"][plan[0]] == "done"

    def test_seq_is_gap_free(self):
        job = make_job()
        for _ in range(10):
            job.bus.publish("log", name="tick")
        seqs = [e.seq for e in job.ring.snapshot()]
        assert seqs == list(range(1, len(seqs) + 1))

    def test_concurrent_publishers_keep_seq_dense(self):
        job = make_job()

        def hammer():
            for _ in range(100):
                job.bus.publish("counter", name="n", value=1.0)

        threads = [threading.Thread(target=hammer) for _ in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        seqs = sorted(e.seq for e in job.ring.snapshot())
        assert seqs == list(range(seqs[0], seqs[0] + len(seqs)))
