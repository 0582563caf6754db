"""The HTTP surface: round trips, SSE, artifacts, errors, lifecycle.

Board jobs (sub-second: check -> place -> DRC) keep these tests fast;
the full-flow concurrency acceptance run lives in
``tests/test_service_e2e.py``.
"""

import json
import threading
import time
import urllib.error
import urllib.request

import pytest
from test_converters_buck import BAD_PARAMETERS

from repro.obs import RunReport, is_run_id
from repro.service import EmiService, ServiceConfig

SMALL_BOARD = """EMIPLACE 1
TITLE service http test board
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

BAD_BOARD = SMALL_BOARD.replace("END", "  KEEPOUT big 0,0 70,50 Z 0 99\nEND")


def request_json(url, method="GET", payload=None, timeout=30):
    """(status, parsed JSON body) without raising on 4xx/5xx."""
    data = json.dumps(payload).encode() if payload is not None else None
    request = urllib.request.Request(url, data=data, method=method)
    if data is not None:
        request.add_header("Content-Type", "application/json")
    try:
        with urllib.request.urlopen(request, timeout=timeout) as response:
            return response.status, json.load(response)
    except urllib.error.HTTPError as error:
        return error.code, json.load(error)


def wait_terminal(base_url, job_id, timeout=60.0):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        status, snap = request_json(f"{base_url}/jobs/{job_id}")
        assert status == 200
        if snap["state"] in ("succeeded", "failed", "cancelled"):
            return snap
        time.sleep(0.02)
    raise AssertionError(f"job {job_id} did not reach a terminal state")


def read_sse(base_url, job_id, since=None, timeout=60):
    """Collect (ids, telemetry events, end snapshot) from one stream."""
    url = f"{base_url}/jobs/{job_id}/events"
    if since is not None:
        url += f"?since={since}"
    ids, events, event_type, data = [], [], None, None
    with urllib.request.urlopen(url, timeout=timeout) as stream:
        for raw in stream:
            line = raw.decode().rstrip("\n")
            if line.startswith("id: "):
                ids.append(int(line[4:]))
            elif line.startswith("event: "):
                event_type = line[7:]
            elif line.startswith("data: "):
                data = line[6:]
            elif not line and event_type:
                if event_type == "end":
                    return ids, events, json.loads(data)
                events.append(json.loads(data))
                event_type = data = None
    raise AssertionError("stream closed without an end frame")


@pytest.fixture(scope="module")
def service(tmp_path_factory):
    root = tmp_path_factory.mktemp("svc")
    config = ServiceConfig(
        port=0,
        data_dir=root / "data",
        cache_dir=None,
        job_timeout_s=60.0,
    )
    svc = EmiService(config)
    svc.start()
    yield svc
    svc.stop()


@pytest.fixture()
def own_service(tmp_path):
    """A fresh service per test, for tests that block or stop the worker."""
    created = []

    def factory(**overrides):
        defaults = dict(
            port=0,
            data_dir=tmp_path / "data",
            cache_dir=None,
            job_timeout_s=60.0,
        )
        defaults.update(overrides)
        svc = EmiService(ServiceConfig(**defaults))
        svc.start()
        created.append(svc)
        return svc

    yield factory
    for svc in created:
        svc.stop(drain=False)


class TestBasics:
    def test_healthz(self, service):
        status, body = request_json(service.url + "/healthz")
        assert status == 200
        assert body["status"] == "ok"

    def test_unknown_routes_404(self, service):
        for method, path in [
            ("GET", "/nope"),
            ("POST", "/jobs/extra"),
            ("DELETE", "/jobs"),
            ("GET", "/jobs/nonexistent"),
            ("DELETE", "/jobs/nonexistent"),
            ("GET", "/jobs/nonexistent/events"),
            ("GET", "/jobs/nonexistent/artifacts"),
            # retired fleet routes
            ("GET", "/metrics"),
            ("GET", "/stats"),
            ("GET", "/dashboard"),
        ]:
            payload = {} if method == "POST" else None
            status, body = request_json(
                service.url + path, method=method, payload=payload
            )
            assert status == 404, (method, path)
            assert "error" in body


class TestRoundTrip:
    def test_board_job_full_round_trip(self, service):
        status, snap = request_json(
            service.url + "/jobs", "POST", {"board": SMALL_BOARD}
        )
        assert status == 202
        assert snap["state"] in ("queued", "running")
        job_id = snap["id"]
        assert job_id.startswith("j")
        assert snap["content_hash"] in job_id or True  # id carries a prefix
        final = wait_terminal(service.url, job_id)
        assert final["state"] == "succeeded"
        assert final["progress"] == 1.0
        assert final["stages"] == {
            "check": "done",
            "placement": "done",
            "verification": "done",
        }
        assert final["result"]["violations"] == 0

        # job listing contains it
        status, listing = request_json(service.url + "/jobs")
        assert status == 200
        assert job_id in [j["id"] for j in listing["jobs"]]

        # artifacts: list, fetch, schema-check the run report
        status, body = request_json(f"{service.url}/jobs/{job_id}/artifacts")
        assert status == 200
        names = body["artifacts"]
        for expected in (
            "run_report.json",
            "events.jsonl",
            "flight.html",
            "check_report.json",
            "placed.txt",
            "board.svg",
            "result.json",
        ):
            assert expected in names
        with urllib.request.urlopen(
            f"{service.url}/jobs/{job_id}/artifacts/run_report.json"
        ) as response:
            report = RunReport.from_json(response.read().decode())
        assert report.meta["status"] == "ok"
        assert report.meta["job_id"] == job_id
        with urllib.request.urlopen(
            f"{service.url}/jobs/{job_id}/artifacts/board.svg"
        ) as response:
            assert "svg" in response.headers["Content-Type"]
            assert b"<svg" in response.read()

    def test_artifact_404_and_traversal_guard(self, service):
        _, snap = request_json(service.url + "/jobs", "POST", {"board": SMALL_BOARD})
        job_id = snap["id"]
        wait_terminal(service.url, job_id)
        for name in ("nope.txt", "..%2F..%2Fsecrets", "run_report.json.bak"):
            status, _ = request_json(
                f"{service.url}/jobs/{job_id}/artifacts/{name}"
            )
            assert status == 404, name

    def test_sse_stream_is_gap_free_and_resumable(self, service):
        _, snap = request_json(service.url + "/jobs", "POST", {"board": SMALL_BOARD})
        job_id = snap["id"]
        ids, events, end = read_sse(service.url, job_id)
        assert end["state"] == "succeeded"
        assert ids == list(range(1, len(ids) + 1))  # gap-free, monotonic
        assert [e["seq"] for e in events] == ids
        kinds = {e["kind"] for e in events}
        assert "stage" in kinds and "span_open" in kinds
        # resume mid-stream: only events after the cursor replay
        cursor = ids[len(ids) // 2]
        ids2, events2, end2 = read_sse(service.url, job_id, since=cursor)
        assert ids2 == list(range(cursor + 1, ids[-1] + 1))
        assert end2["state"] == "succeeded"

    def test_identical_payloads_share_content_hash(self, service):
        _, a = request_json(service.url + "/jobs", "POST", {"board": SMALL_BOARD})
        _, b = request_json(service.url + "/jobs", "POST", {"board": SMALL_BOARD})
        assert a["id"] != b["id"]
        assert a["content_hash"] == b["content_hash"]


class TestRejections:
    def test_non_json_body(self, service):
        request = urllib.request.Request(
            service.url + "/jobs", data=b"not json", method="POST"
        )
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            urllib.request.urlopen(request)
        assert excinfo.value.code == 400

    def test_malformed_payload_400(self, service):
        status, body = request_json(
            service.url + "/jobs", "POST", {"desing": {}}
        )
        assert status == 400
        assert "desing" in body["error"]

    def test_zero_output_current_400(self, service):
        status, body = request_json(
            service.url + "/jobs",
            "POST",
            {"design": {"kind": "buck", "params": {"output_current": 0}}},
        )
        assert status == 400
        assert "output current" in body["error"]

    @pytest.mark.parametrize("params, message", BAD_PARAMETERS)
    def test_unbuildable_design_400(self, service, params, message):
        before = request_json(service.url + "/jobs")[1]["jobs"]
        status, body = request_json(
            service.url + "/jobs", "POST", {"design": {"kind": "buck", "params": params}}
        )
        assert status == 400
        assert message in body["error"]
        assert len(request_json(service.url + "/jobs")[1]["jobs"]) == len(before)

    def test_failing_board_cites_check_report(self, service):
        status, body = request_json(
            service.url + "/jobs", "POST", {"board": BAD_BOARD}
        )
        assert status == 400
        assert "check" in body["error"]
        report = body["check_report"]
        codes = [d["code"] for d in report["diagnostics"]]
        assert codes, "rejection must cite the failing check rules"

    def test_rejections_never_occupy_workers(self, service):
        before = request_json(service.url + "/jobs")[1]["jobs"]
        request_json(service.url + "/jobs", "POST", {"board": BAD_BOARD})
        after = request_json(service.url + "/jobs")[1]["jobs"]
        assert len(after) == len(before)


class TestCancellation:
    def test_cancel_queued_job(self, own_service):
        svc = own_service()
        svc.manager.runner.stage_hook = (
            lambda job, stage: job.cancel_event.wait(timeout=30)
        )
        # First job occupies the only worker at its first checkpoint...
        _, first = request_json(svc.url + "/jobs", "POST", {"board": SMALL_BOARD})
        # ...so the second stays queued and cancels immediately.
        _, second = request_json(svc.url + "/jobs", "POST", {"board": SMALL_BOARD})
        status, snap = request_json(
            f"{svc.url}/jobs/{second['id']}", method="DELETE"
        )
        assert status == 200
        assert snap["state"] == "cancelled"
        # unblock + cancel the pinned job too
        request_json(f"{svc.url}/jobs/{first['id']}", method="DELETE")
        final = wait_terminal(svc.url, first["id"])
        assert final["state"] == "cancelled"

    def test_cancel_running_job_stops_at_checkpoint(self, own_service):
        svc = own_service()
        svc.manager.runner.stage_hook = (
            lambda job, stage: job.cancel_event.wait(timeout=30)
        )
        _, snap = request_json(svc.url + "/jobs", "POST", {"board": SMALL_BOARD})
        job_id = snap["id"]
        # wait until it is actually running
        deadline = time.monotonic() + 10
        while request_json(f"{svc.url}/jobs/{job_id}")[1]["state"] == "queued":
            assert time.monotonic() < deadline
            time.sleep(0.01)
        status, _ = request_json(f"{svc.url}/jobs/{job_id}", method="DELETE")
        assert status == 200
        final = wait_terminal(svc.url, job_id)
        assert final["state"] == "cancelled"
        assert final["error"]["kind"] == "cancelled"
        # cancelled jobs still flush their diagnostics artifacts
        assert "run_report.json" in final["artifacts"]
        assert "events.jsonl" in final["artifacts"]
        # DELETE on a terminal job is idempotent
        status, snap = request_json(f"{svc.url}/jobs/{job_id}", method="DELETE")
        assert status == 200
        assert snap["state"] == "cancelled"

    def test_timeout_fails_the_job(self, own_service):
        svc = own_service()
        svc.manager.runner.stage_hook = lambda job, stage: time.sleep(0.1)
        _, snap = request_json(
            svc.url + "/jobs",
            "POST",
            {"board": SMALL_BOARD, "options": {"timeout_s": 0.05}},
        )
        final = wait_terminal(svc.url, snap["id"])
        assert final["state"] == "failed"
        assert final["error"]["kind"] == "timeout"


class TestBackpressureAndShutdown:
    def test_queue_full_gets_429(self, own_service):
        svc = own_service(max_queued=1)
        svc.manager.runner.stage_hook = (
            lambda job, stage: job.cancel_event.wait(timeout=30)
        )
        _, first = request_json(svc.url + "/jobs", "POST", {"board": SMALL_BOARD})
        # wait for pickup so the queue slot frees
        deadline = time.monotonic() + 10
        while request_json(f"{svc.url}/jobs/{first['id']}")[1]["state"] == "queued":
            assert time.monotonic() < deadline
            time.sleep(0.01)
        status, _ = request_json(svc.url + "/jobs", "POST", {"board": SMALL_BOARD})
        assert status == 202  # fills the single queue slot
        status, body = request_json(
            svc.url + "/jobs", "POST", {"board": SMALL_BOARD}
        )
        assert status == 429
        assert "full" in body["error"]
        # a refused submission leaves no job behind
        assert len(request_json(svc.url + "/jobs")[1]["jobs"]) == 2

    def test_shutdown_refuses_submissions_with_503(self, own_service):
        svc = own_service()
        svc.manager.close()
        status, body = request_json(
            svc.url + "/jobs", "POST", {"board": SMALL_BOARD}
        )
        assert status == 503
        assert "shutting down" in body["error"]
        status, body = request_json(svc.url + "/healthz")
        assert status == 200
        assert body["status"] == "shutting-down"

    def test_drain_finishes_inflight_jobs(self, own_service):
        svc = own_service()
        ids = []
        for _ in range(3):
            _, snap = request_json(
                svc.url + "/jobs", "POST", {"board": SMALL_BOARD}
            )
            ids.append(snap["id"])
        svc.stop(drain=True)  # blocks until every job is terminal
        for job_id in ids:
            job = svc.manager.get(job_id)
            assert job.state == "succeeded"
            assert (job.artifacts_dir / "run_report.json").is_file()

    def test_abort_cancels_queued_and_running_jobs(self, own_service):
        svc = own_service()
        svc.manager.runner.stage_hook = (
            lambda job, stage: job.cancel_event.wait(timeout=30)
        )
        _, first = request_json(svc.url + "/jobs", "POST", {"board": SMALL_BOARD})
        deadline = time.monotonic() + 10
        while request_json(f"{svc.url}/jobs/{first['id']}")[1]["state"] == "queued":
            assert time.monotonic() < deadline
            time.sleep(0.01)
        _, second = request_json(svc.url + "/jobs", "POST", {"board": SMALL_BOARD})
        svc.stop(drain=False)  # returns only once the worker is joined
        pinned = svc.manager.get(first["id"])
        queued = svc.manager.get(second["id"])
        assert pinned.state == queued.state == "cancelled"
        assert pinned.error["message"] == "cancelled while running"
        assert queued.error["message"] == "cancelled while queued"
        assert (pinned.artifacts_dir / "run_report.json").is_file()

    def test_jobs_start_in_submission_order(self, own_service):
        svc = own_service()
        release = threading.Event()
        started = []

        def hold_first_job(job, stage):
            if stage == "check":
                started.append(job.id)
                release.wait(timeout=30)

        svc.manager.runner.stage_hook = hold_first_job
        ids = [
            request_json(svc.url + "/jobs", "POST", {"board": SMALL_BOARD})[1]["id"]
            for _ in range(4)
        ]
        release.set()
        svc.stop(drain=True)
        assert started == ids
        assert [svc.manager.get(job_id).state for job_id in ids] == ["succeeded"] * 4


@pytest.fixture(scope="module")
def finished_job(service):
    """One board job run to completion: (202 snapshot, final, 202 headers)."""
    request = urllib.request.Request(
        service.url + "/jobs",
        data=json.dumps({"board": SMALL_BOARD}).encode(),
        method="POST",
    )
    with urllib.request.urlopen(request, timeout=30) as response:
        assert response.status == 202
        headers = dict(response.headers)
        snap = json.load(response)
    final = wait_terminal(service.url, snap["id"])
    assert final["state"] == "succeeded"
    return snap, final, headers


def read_artifact(base_url, job_id, name):
    with urllib.request.urlopen(
        f"{base_url}/jobs/{job_id}/artifacts/{name}", timeout=30
    ) as response:
        return response.read().decode()


class TestRunIds:
    def test_submission_mints_a_run_id(self, finished_job):
        snap, _, headers = finished_job
        assert is_run_id(snap["run_id"])
        assert headers.get("X-Repro-Run-Id") == snap["run_id"]

    def test_snapshot_carries_header_and_same_id(self, service, finished_job):
        snap, _, _ = finished_job
        with urllib.request.urlopen(f"{service.url}/jobs/{snap['id']}") as response:
            assert response.headers.get("X-Repro-Run-Id") == snap["run_id"]
            assert json.load(response)["run_id"] == snap["run_id"]

    def test_run_report_meta_matches(self, service, finished_job):
        snap, _, _ = finished_job
        report = json.loads(read_artifact(service.url, snap["id"], "run_report.json"))
        assert report["meta"]["run_id"] == snap["run_id"]

    def test_every_event_carries_the_run_id(self, service, finished_job):
        snap, _, _ = finished_job
        text = read_artifact(service.url, snap["id"], "events.jsonl")
        lines = [json.loads(line) for line in text.splitlines() if line.strip()]
        assert lines
        assert all(event.get("run_id") == snap["run_id"] for event in lines)

    def test_distinct_jobs_get_distinct_ids(self, service, finished_job):
        snap, _, _ = finished_job
        status, other = request_json(
            service.url + "/jobs", "POST", {"board": SMALL_BOARD}
        )
        assert status == 202
        wait_terminal(service.url, other["id"])
        assert other["run_id"] != snap["run_id"]


class TestQueueWait:
    def test_snapshot_has_queued_at_and_queue_wait(self, finished_job):
        _, final, _ = finished_job
        assert final["queued_at"] == final["submitted_at"]
        assert final["queue_wait_s"] is not None
        assert final["queue_wait_s"] >= 0.0

    def test_run_report_gauge_matches_snapshot(self, service, finished_job):
        _, final, _ = finished_job
        report = RunReport.from_json(
            read_artifact(service.url, final["id"], "run_report.json")
        )
        assert report.gauges["service.queue_wait_s"] == final["queue_wait_s"]
