"""Unit tests for the telemetry event model and bus (repro.obs.events/bus)."""

import io
import json
import threading

import pytest

from repro.obs import (
    EVENT_KINDS,
    EVENT_SCHEMA_VERSION,
    EventBus,
    EventRingBuffer,
    JsonlSink,
    LiveRenderer,
    TelemetryEvent,
    validate_event_dict,
)


class TestTelemetryEvent:
    def test_to_dict_core_keys(self):
        event = TelemetryEvent(seq=3, ts=12.5, kind="counter", name="x", value=2.0)
        data = event.to_dict()
        assert data["schema"] == EVENT_SCHEMA_VERSION
        assert data["seq"] == 3
        assert data["ts"] == 12.5
        assert data["kind"] == "counter"
        assert data["name"] == "x"
        assert data["value"] == 2.0

    def test_to_dict_omits_empty_fields(self):
        data = TelemetryEvent(seq=1, ts=0.0, kind="log", name="m").to_dict()
        assert "path" not in data
        assert "value" not in data
        assert "attrs" not in data

    def test_round_trip(self):
        event = TelemetryEvent(
            seq=7,
            ts=1.25,
            kind="stage",
            name="rules",
            path="run/flow.rules",
            value=0.5,
            attrs={"status": "done"},
        )
        back = TelemetryEvent.from_dict(json.loads(json.dumps(event.to_dict())))
        assert back == event

    def test_from_dict_rejects_invalid(self):
        with pytest.raises(ValueError, match="invalid telemetry event"):
            TelemetryEvent.from_dict({"seq": 1, "ts": 0.0, "kind": "nope", "name": "x"})

    def test_is_immutable(self):
        event = TelemetryEvent(seq=1, ts=0.0, kind="log", name="m")
        with pytest.raises(AttributeError):
            event.seq = 2


class TestValidateEventDict:
    def _valid(self):
        return {"schema": 1, "seq": 1, "ts": 0.0, "kind": "log", "name": "m"}

    def test_valid_payload_is_clean(self):
        assert validate_event_dict(self._valid()) == []

    def test_every_kind_is_accepted(self):
        for kind in EVENT_KINDS:
            data = {**self._valid(), "kind": kind}
            assert validate_event_dict(data) == []

    def test_non_dict_rejected(self):
        assert validate_event_dict([1, 2]) != []
        assert validate_event_dict("x") != []

    def test_unknown_kind_rejected(self):
        assert any(
            "kind" in p for p in validate_event_dict({**self._valid(), "kind": "x"})
        )

    def test_negative_seq_rejected(self):
        assert validate_event_dict({**self._valid(), "seq": -1}) != []

    def test_bool_is_not_a_number(self):
        assert validate_event_dict({**self._valid(), "seq": True}) != []
        assert validate_event_dict({**self._valid(), "ts": True}) != []
        assert validate_event_dict({**self._valid(), "value": True}) != []

    def test_newer_schema_rejected(self):
        data = {**self._valid(), "schema": EVENT_SCHEMA_VERSION + 1}
        assert any("newer" in p for p in validate_event_dict(data))

    def test_extra_keys_tolerated(self):
        assert validate_event_dict({**self._valid(), "future_field": 1}) == []

    def test_bad_attrs_rejected(self):
        assert validate_event_dict({**self._valid(), "attrs": [1]}) != []


class TestEventBus:
    def test_publish_stamps_monotonic_seq(self):
        bus = EventBus()
        events = [bus.publish("log", f"m{i}") for i in range(5)]
        assert [e.seq for e in events] == [1, 2, 3, 4, 5]
        assert bus.last_seq == 5

    def test_publish_rejects_unknown_kind(self):
        with pytest.raises(ValueError, match="unknown event kind"):
            EventBus().publish("bogus", "x")

    def test_subscribers_see_events_in_order(self):
        bus = EventBus()
        seen: list[int] = []
        bus.subscribe(lambda e: seen.append(e.seq))
        for _ in range(3):
            bus.publish("log", "m")
        assert seen == [1, 2, 3]

    def test_unsubscribe_stops_delivery(self):
        bus = EventBus()
        seen: list[TelemetryEvent] = []
        sub = bus.subscribe(seen.append)
        bus.publish("log", "a")
        bus.unsubscribe(sub)
        bus.publish("log", "b")
        assert [e.name for e in seen] == ["a"]

    def test_unsubscribe_unknown_is_noop(self):
        EventBus().unsubscribe(lambda e: None)

    def test_raising_subscriber_is_counted_not_fatal(self):
        bus = EventBus()

        def bad(event):
            raise RuntimeError("boom")

        seen: list[TelemetryEvent] = []
        bus.subscribe(bad)
        bus.subscribe(seen.append)
        event = bus.publish("log", "m")
        assert event is not None
        assert bus.subscriber_errors == 1
        assert len(seen) == 1  # later subscribers still get the event

    def test_closed_bus_drops_publishes(self):
        bus = EventBus()
        bus.publish("log", "before")
        bus.close()
        assert bus.closed
        assert bus.publish("log", "after") is None
        assert bus.last_seq == 1

    def test_close_closes_subscribers_and_is_idempotent(self):
        bus = EventBus()
        closed = []

        class Sub:
            def __call__(self, event):
                pass

            def close(self):
                closed.append(True)

        bus.subscribe(Sub())
        bus.close()
        bus.close()
        assert closed == [True]

    def test_seq_gap_free_across_threads(self):
        bus = EventBus()
        seen: list[int] = []
        bus.subscribe(lambda e: seen.append(e.seq))

        def pump():
            for _ in range(200):
                bus.publish("counter", "c", value=1.0)

        threads = [threading.Thread(target=pump) for _ in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        # Delivery runs under the bus lock: in-order, gap-free from 1.
        assert seen == list(range(1, 801))

    def test_error_count_exact_under_concurrent_close(self):
        # Regression for a lost-update race: close() incremented
        # subscriber_errors without the bus lock while publishers
        # incremented it under the lock, so increments could be lost.
        # Both paths are lock-guarded now; the count must be exact: one
        # per delivered publish (the subscriber raises every time) plus
        # one for the raising closer.
        bus = EventBus()

        class RaisingSub:
            def __call__(self, event):
                raise RuntimeError("deliver boom")

            def close(self):
                raise RuntimeError("close boom")

        bus.subscribe(RaisingSub())
        delivered = []

        def pump():
            for _ in range(100):
                if bus.publish("log", "m") is not None:
                    delivered.append(1)

        threads = [threading.Thread(target=pump) for _ in range(4)]
        for t in threads:
            t.start()
        bus.close()
        for t in threads:
            t.join()
        assert bus.subscriber_errors == len(delivered) + 1


class TestJsonlSink:
    def test_writes_valid_lines_and_flushes(self, tmp_path):
        path = tmp_path / "events.jsonl"
        bus = EventBus()
        sink = bus.subscribe(JsonlSink(path))
        bus.publish("log", "a")
        bus.publish("counter", "c", value=2.0, attrs={"k": 1})
        # Flushed per event: readable before close.
        lines = path.read_text().splitlines()
        assert len(lines) == 2
        for line in lines:
            assert validate_event_dict(json.loads(line)) == []
        assert sink.events_written == 2
        bus.close()

    def test_close_via_bus_then_writes_are_dropped(self, tmp_path):
        path = tmp_path / "events.jsonl"
        bus = EventBus()
        sink = bus.subscribe(JsonlSink(path))
        bus.publish("log", "a")
        bus.close()
        sink(TelemetryEvent(seq=99, ts=0.0, kind="log", name="late"))
        assert len(path.read_text().splitlines()) == 1


class TestEventRingBuffer:
    def _event(self, seq):
        return TelemetryEvent(seq=seq, ts=0.0, kind="log", name="m")

    def test_rejects_bad_capacity(self):
        with pytest.raises(ValueError, match="capacity"):
            EventRingBuffer(capacity=0)

    def test_drain_returns_and_clears(self):
        ring = EventRingBuffer(capacity=10)
        for i in range(1, 4):
            ring(self._event(i))
        assert [e.seq for e in ring.drain()] == [1, 2, 3]
        assert len(ring) == 0
        assert ring.drain() == []

    def test_since_is_nondestructive_cursor(self):
        ring = EventRingBuffer(capacity=10)
        for i in range(1, 6):
            ring(self._event(i))
        assert [e.seq for e in ring.since(3)] == [4, 5]
        assert len(ring) == 5  # nothing consumed
        assert ring.since(5) == []

    def test_overflow_evicts_oldest_and_counts(self):
        ring = EventRingBuffer(capacity=3)
        for i in range(1, 6):
            ring(self._event(i))
        assert ring.dropped == 2
        assert [e.seq for e in ring.snapshot()] == [3, 4, 5]

    def test_works_as_bus_subscriber(self):
        bus = EventBus()
        ring = bus.subscribe(EventRingBuffer(capacity=16))
        bus.publish("log", "a")
        bus.publish("log", "b")
        assert [e.name for e in ring.drain()] == ["a", "b"]


class TestLiveRenderer:
    def _renderer(self):
        stream = io.StringIO()
        return LiveRenderer(stream=stream, min_interval_s=0.0), stream

    def test_paints_stage_and_span(self):
        renderer, stream = self._renderer()
        bus = EventBus()
        bus.subscribe(renderer)
        bus.publish("stage", "rules", attrs={"status": "start"})
        bus.publish("span_open", "flow.rules", path="run/flow.rules")
        out = stream.getvalue()
        assert "rules" in out
        assert "run/flow.rules" in out

    def test_cache_rate_and_rss(self):
        renderer, stream = self._renderer()
        renderer(
            TelemetryEvent(
                seq=1, ts=0.0, kind="counter", name="coupling.cache_hits", value=3.0
            )
        )
        renderer(
            TelemetryEvent(
                seq=2, ts=0.0, kind="counter", name="coupling.cache_misses", value=1.0
            )
        )
        renderer(
            TelemetryEvent(
                seq=3, ts=0.0, kind="gauge", name="proc.rss_peak_bytes", value=2e8
            )
        )
        out = stream.getvalue()
        assert "cache 75%" in out
        assert "rss 200MB" in out

    def test_line_width_clamped(self):
        stream = io.StringIO()
        renderer = LiveRenderer(stream=stream, min_interval_s=0.0, width=40)
        renderer(
            TelemetryEvent(
                seq=1, ts=0.0, kind="span_open", name="x", path="run/" + "y" * 200
            )
        )
        last_line = stream.getvalue().split("\r")[-1].replace("\x1b[2K", "")
        assert len(last_line) <= 40

    def test_close_terminates_line_and_is_idempotent(self):
        renderer, stream = self._renderer()
        renderer(TelemetryEvent(seq=1, ts=0.0, kind="log", name="m"))
        renderer.close()
        renderer.close()
        assert stream.getvalue().endswith("\n")

    def test_broken_stream_disables_silently(self):
        stream = io.StringIO()
        renderer = LiveRenderer(stream=stream, min_interval_s=0.0)
        stream.close()
        renderer(TelemetryEvent(seq=1, ts=0.0, kind="log", name="m"))
        renderer.close()  # must not raise
