"""Talk to the EMI design service with nothing but the stdlib.

The service (``repro-emi serve``, see docs/SERVICE.md) is plain
HTTP/JSON + Server-Sent Events, so a client needs only ``urllib`` and
``json``.  This script walks the full round trip:

1. submit the demo board for check → auto-place → DRC,
2. follow the job live on its SSE event stream,
3. fetch the artifacts and the result summary.

Run against a running server:   python examples/service_client.py --url http://127.0.0.1:8765
Run self-contained (no server): python examples/service_client.py
(the self-contained mode boots an in-process service on an ephemeral
port, which is also how the test suite exercises this script).
"""

import argparse
import json
import tempfile
import urllib.request
from pathlib import Path

BOARD = (Path(__file__).parent / "boards" / "demo_board.txt").read_text()


def submit_job(base_url: str, payload: dict) -> dict:
    request = urllib.request.Request(
        base_url + "/jobs",
        data=json.dumps(payload).encode(),
        headers={"Content-Type": "application/json"},
    )
    with urllib.request.urlopen(request) as response:
        return json.load(response)


def follow_events(base_url: str, job_id: str) -> dict:
    """Stream SSE frames until the terminal ``event: end`` snapshot."""
    stages_seen = []
    event_count = 0
    event_type = data = None
    with urllib.request.urlopen(f"{base_url}/jobs/{job_id}/events") as stream:
        for raw in stream:
            line = raw.decode().rstrip("\n")
            if line.startswith("event: "):
                event_type = line[len("event: ") :]
            elif line.startswith("data: "):
                data = line[len("data: ") :]
            elif not line and event_type:  # blank line terminates a frame
                if event_type == "end":
                    return {"events": event_count, "stages": stages_seen,
                            "snapshot": json.loads(data)}
                event_count += 1
                event = json.loads(data)
                if event["kind"] == "stage" and event["attrs"]["status"] == "start":
                    stages_seen.append(event["name"])
                event_type = data = None
    raise RuntimeError("event stream ended without a terminal frame")


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--url", help="base URL of a running repro-emi service")
    args = parser.parse_args()

    service = None
    if args.url:
        base_url = args.url.rstrip("/")
    else:
        from repro.service import EmiService, ServiceConfig

        service = EmiService(
            ServiceConfig(
                port=0,  # ephemeral port: never collides
                data_dir=Path(tempfile.mkdtemp(prefix="repro-emi-svc-")),
                cache_dir=None,
            )
        )
        base_url = service.start()
        print(f"booted in-process service at {base_url}")

    try:
        snapshot = submit_job(base_url, {"board": BOARD})
        print(f"submitted {snapshot['id']}  state={snapshot['state']}")

        outcome = follow_events(base_url, snapshot["id"])
        final = outcome["snapshot"]
        print(f"streamed {outcome['events']} events; stages: "
              + " -> ".join(outcome["stages"]))
        print(f"final state: {final['state']}  progress={final['progress']:.0%}")

        result = final["result"]
        print(f"placed {result['placed_count']} parts, "
              f"{result['violations']} DRC violations, "
              f"{result['runtime_s'] * 1e3:.0f} ms placement runtime")

        with urllib.request.urlopen(
            f"{base_url}/jobs/{final['id']}/artifacts"
        ) as response:
            names = json.load(response)["artifacts"]
        print(f"artifacts: {', '.join(names)}")
    finally:
        if service is not None:
            service.stop()
            print("service drained and stopped")


if __name__ == "__main__":
    main()
