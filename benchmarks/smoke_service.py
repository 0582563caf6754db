"""Smoke test of the EMI design service: boot, one job, clean shutdown.

Boots a real server on an ephemeral port via the CLI's own code path
(``EmiService``, exactly what ``repro-emi serve`` runs), submits one
flow job over HTTP, follows it on the SSE stream, and verifies:

* the job reaches ``succeeded`` with ``progress == 1.0``;
* the SSE sequence numbers are gap-free and strictly monotonic;
* the artifact directory holds a parseable RunReport stamped ``ok``;
* one run-correlation id is minted and identical across the job's
  ``X-Repro-Run-Id`` header, its RunReport meta and every event in
  ``events.jsonl``;
* the job's ``flight.html`` flight recorder is self-contained HTML;
  it is saved to the output directory given as the first argument
  (default ``benchmarks/out``) for upload as a CI artifact;
* shutdown drains cleanly — the non-daemon worker joined, socket closed.

Invoked by ``make serve-smoke`` (and CI); runs in a few seconds.
"""

from __future__ import annotations

import json
import sys
import tempfile
import urllib.request
from pathlib import Path

from repro.obs import RunReport
from repro.service import EmiService, ServiceConfig


def main(argv: list[str]) -> int:
    out_dir = Path(argv[0]) if argv else Path("benchmarks/out")
    root = Path(tempfile.mkdtemp(prefix="repro-emi-serve-smoke-"))
    service = EmiService(
        ServiceConfig(
            port=0,
            data_dir=root / "data",
            cache_dir=root / "cache",
            job_timeout_s=120.0,
        )
    )
    base_url = service.start()
    print(f"[smoke] service up at {base_url}")
    try:
        payload = json.dumps({"design": {"kind": "buck", "params": {}}}).encode()
        request = urllib.request.Request(
            base_url + "/jobs",
            data=payload,
            headers={"Content-Type": "application/json"},
        )
        with urllib.request.urlopen(request) as response:
            assert response.status == 202, response.status
            run_id = response.headers.get("X-Repro-Run-Id", "")
            snapshot = json.load(response)
            job_id = snapshot["id"]
        assert run_id, "202 response is missing the X-Repro-Run-Id header"
        assert snapshot["run_id"] == run_id, "header and snapshot run_id differ"
        print(f"[smoke] submitted {job_id} (run {run_id})")

        seqs: list[int] = []
        event_type = data = None
        final = None
        with urllib.request.urlopen(
            f"{base_url}/jobs/{job_id}/events", timeout=120
        ) as stream:
            for raw in stream:
                line = raw.decode().rstrip("\n")
                if line.startswith("id: "):
                    seqs.append(int(line[4:]))
                elif line.startswith("event: "):
                    event_type = line[7:]
                elif line.startswith("data: "):
                    data = line[6:]
                elif not line and event_type == "end":
                    final = json.loads(data)
                    break
        assert final is not None, "SSE stream ended without an end frame"
        assert final["state"] == "succeeded", final.get("error")
        assert final["progress"] == 1.0, final["progress"]
        assert seqs == list(range(1, len(seqs) + 1)), "SSE sequence has gaps"
        print(f"[smoke] job succeeded; {len(seqs)} SSE events, gap-free")

        with urllib.request.urlopen(
            f"{base_url}/jobs/{job_id}/artifacts/run_report.json"
        ) as response:
            report = RunReport.from_json(response.read().decode())
        assert report.meta["status"] == "ok"
        assert report.meta["job_id"] == job_id
        assert report.meta["run_id"] == run_id, "RunReport meta run_id differs"
        print("[smoke] run report artifact parses, stamped ok + run_id")

        with urllib.request.urlopen(
            f"{base_url}/jobs/{job_id}/artifacts/events.jsonl"
        ) as response:
            events = [
                json.loads(line)
                for line in response.read().decode().splitlines()
                if line.strip()
            ]
        assert events, "events.jsonl is empty"
        assert all(e.get("run_id") == run_id for e in events), (
            "events.jsonl carries a different run_id"
        )
        print(f"[smoke] all {len(events)} events correlate to run {run_id}")

        with urllib.request.urlopen(
            f"{base_url}/jobs/{job_id}/artifacts/flight.html"
        ) as response:
            html = response.read().decode()
        assert html.startswith("<!DOCTYPE html>"), "flight.html is not HTML"
        for marker in ('src="http', 'href="http', "@import", "cdn."):
            assert marker not in html, f"flight.html is not self-contained: {marker}"
        out_dir.mkdir(parents=True, exist_ok=True)
        (out_dir / "flight.html").write_text(html, encoding="utf-8")
        print(f"[smoke] wrote {out_dir}/flight.html")
    finally:
        service.stop()
    print("[smoke] clean shutdown: worker joined, socket closed")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
