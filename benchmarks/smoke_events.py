"""Smoke test for the telemetry event stream and the flight recorder.

Runs the ``rules`` CLI on the demo board with ``--events-out`` (cold
cache, so the coupling field solves actually run), then checks the
emitted JSONL end to end:

* every line parses and passes :func:`repro.obs.validate_event_dict`;
* sequence numbers are strictly monotonic and gap-free from 1;
* the log carries the expected shapes — a ``rules`` stage start/done
  pair, matched ``coupling.field_solve`` span open/close events whose
  every close carries a positive wall time, and the resource sampler's
  ``proc.*`` gauges;
* ``repro-emi perf flight`` renders the run (report + events) into a
  non-trivial self-contained HTML artefact.

Invoked by ``make events-smoke`` (and CI); runs in a few seconds.
"""

from __future__ import annotations

import contextlib
import io
import json
import sys
import tempfile
from pathlib import Path

from repro.cli import main
from repro.obs import validate_event_dict

BOARD = Path(__file__).resolve().parent.parent / "examples" / "boards" / "demo_board.txt"


def run_rules(board: Path, cache_dir: Path, events: Path, metrics: Path) -> None:
    argv = [
        "rules",
        str(board),
        "--max-pairs",
        "2",
        "--cache-dir",
        str(cache_dir),
        "--events-out",
        str(events),
        "--metrics-out",
        str(metrics),
    ]
    buffer = io.StringIO()
    with contextlib.redirect_stdout(buffer):
        code = main(argv)
    if code != 0:
        print(buffer.getvalue())
        raise SystemExit(f"rules exited with {code}")


def load_events(path: Path) -> list[dict]:
    events: list[dict] = []
    for i, line in enumerate(path.read_text(encoding="utf-8").splitlines(), 1):
        if not line.strip():
            raise SystemExit(f"{path}:{i}: blank line in event log")
        try:
            data = json.loads(line)
        except ValueError as exc:
            raise SystemExit(f"{path}:{i}: not JSON: {exc}") from exc
        errors = validate_event_dict(data)
        if errors:
            raise SystemExit(f"{path}:{i}: invalid event: {'; '.join(errors)}")
        events.append(data)
    if not events:
        raise SystemExit(f"{path}: event log is empty")
    return events


def check_sequence(events: list[dict]) -> None:
    seqs = [event["seq"] for event in events]
    if seqs != list(range(1, len(seqs) + 1)):
        first_bad = next(
            (i for i, s in enumerate(seqs) if s != i + 1), len(seqs) - 1
        )
        raise SystemExit(
            f"seq not gap-free monotonic from 1: position {first_bad} "
            f"holds seq {seqs[first_bad]}"
        )


def check_shapes(events: list[dict]) -> None:
    names = {(e["kind"], e["name"]) for e in events}
    stage_statuses = {
        e["attrs"].get("status", "start")
        for e in events
        if e["kind"] == "stage" and e["name"] == "rules"
    }
    expectations = [
        ("start" in stage_statuses, "no 'rules' stage start event"),
        ("done" in stage_statuses, "no 'rules' stage done event"),
        (("span_open", "coupling.field_solve") in names, "no coupling.field_solve span"),
        (("gauge", "proc.rss_peak_bytes") in names, "no sampler RSS gauge"),
        (("gauge", "proc.cpu_pct") in names, "no sampler CPU gauge"),
        (any(k == "span_open" for k, _ in names), "no span_open events"),
        (any(k == "span_close" for k, _ in names), "no span_close events"),
        (any(k == "counter" for k, _ in names), "no counter events"),
    ]
    for ok, complaint in expectations:
        if not ok:
            raise SystemExit(complaint)
    opens, closes = (
        [e for e in events if e["kind"] == kind and e["name"] == "coupling.field_solve"]
        for kind in ("span_open", "span_close")
    )
    if len(opens) != len(closes):
        raise SystemExit(
            f"coupling.field_solve opened {len(opens)} times, closed {len(closes)}"
        )
    untimed = [e["seq"] for e in closes if not (e.get("value") or 0) > 0]
    if untimed:
        raise SystemExit(f"coupling.field_solve closed without a positive wall time: seq {untimed}")


def run_flight(metrics: Path, events: Path, out: Path, store: Path) -> None:
    argv = [
        "perf",
        "flight",
        str(metrics),
        "--events",
        str(events),
        "--store",
        str(store),
        "-o",
        str(out),
    ]
    buffer = io.StringIO()
    with contextlib.redirect_stdout(buffer):
        code = main(argv)
    if code != 0:
        print(buffer.getvalue())
        raise SystemExit(f"perf flight exited with {code}")
    html = out.read_text(encoding="utf-8")
    for token in ("Span tree", "Event timeline", "<svg"):
        if token not in html:
            raise SystemExit(f"flight HTML is missing {token!r}")
    if len(html) < 5000:
        raise SystemExit(f"flight HTML suspiciously small ({len(html)} bytes)")


def main_smoke() -> int:
    board = Path(sys.argv[1]) if len(sys.argv) > 1 else BOARD
    with tempfile.TemporaryDirectory(prefix="repro-emi-events-") as tmp:
        root = Path(tmp)
        events = root / "events.jsonl"
        metrics = root / "metrics.json"

        run_rules(board, root / "coupling", events, metrics)
        parsed = load_events(events)
        check_sequence(parsed)
        check_shapes(parsed)
        print(f"event log OK: {len(parsed)} schema-valid events, seq gap-free")

        flight = root / "flight.html"
        run_flight(metrics, events, flight, root / "history.jsonl")
        print(f"flight recorder OK: {flight.stat().st_size} bytes of HTML")

    print("events-smoke OK: stream, schema, field-solve events, flight recorder")
    return 0


if __name__ == "__main__":
    raise SystemExit(main_smoke())
