"""Acceptance run: 8 queued demo-design flow jobs through the one worker.

Every job must reach ``succeeded`` with a schema-valid RunReport
artifact and a gap-free, monotonic SSE sequence while eight SSE
subscribers follow concurrently.  All jobs share one persistent
coupling cache, so later jobs must read couplings an earlier job wrote.
"""

import json
import threading
import urllib.request

from repro.obs import RunReport
from repro.service import EmiService, ServiceConfig

from test_service_http import read_sse, request_json

N_JOBS = 8


def test_eight_queued_flow_jobs(tmp_path):
    config = ServiceConfig(
        port=0,
        data_dir=tmp_path / "data",
        cache_dir=tmp_path / "cache",  # shared by all 8 jobs
        job_timeout_s=300.0,
    )
    service = EmiService(config)
    base_url = service.start()
    try:
        # submit all eight before any finishes: the queue must actually fill
        payload = {"design": {"kind": "buck", "params": {}}}
        job_ids = []
        for _ in range(N_JOBS):
            status, snap = request_json(base_url + "/jobs", "POST", payload)
            assert status == 202
            job_ids.append(snap["id"])
        assert len(set(job_ids)) == N_JOBS

        # one SSE subscriber per job, all concurrent
        outcomes: dict[str, tuple] = {}
        errors: list[BaseException] = []

        def follow(job_id: str) -> None:
            try:
                outcomes[job_id] = read_sse(base_url, job_id, timeout=280)
            except BaseException as exc:  # surfaced after join
                errors.append(exc)

        threads = [
            threading.Thread(target=follow, args=(job_id,), name=f"sse-{job_id}")
            for job_id in job_ids
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=300)
        assert not errors, errors
        assert len(outcomes) == N_JOBS

        results = []
        for job_id in job_ids:
            ids, events, end = outcomes[job_id]
            assert end["state"] == "succeeded", (job_id, end["error"])
            assert end["progress"] == 1.0
            assert end["events_dropped"] == 0
            # gap-free monotonic SSE sequence, from the very first event
            assert ids == list(range(1, len(ids) + 1)), job_id
            assert [e["seq"] for e in events] == ids

            # schema-valid RunReport artifact for every job
            with urllib.request.urlopen(
                f"{base_url}/jobs/{job_id}/artifacts/run_report.json"
            ) as response:
                report = RunReport.from_json(response.read().decode())
            assert report.meta["status"] == "ok"
            assert report.meta["job_id"] == job_id
            assert report.root.wall_s > 0.0

            # the paper's headline must hold in every artifact set
            with urllib.request.urlopen(
                f"{base_url}/jobs/{job_id}/artifacts/result.json"
            ) as response:
                result = json.load(response)
            assert result["layouts"]["optimized"]["passes_limits"]
            results.append(result)

        assert [j.state for j in service.manager.jobs()] == ["succeeded"] * N_JOBS
        # the shared persistent cache pays off across jobs
        assert results[-1]["cache"]["persistent_hits"] > 0
    finally:
        service.stop()
