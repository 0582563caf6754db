"""Integration tests for the streaming obs layer.

Covers the tracer-to-bus emission contract, the threading contract
(single-threaded span stack, lock-protected counters/gauges), the
resource sampler, and the null-tracer guarantee that none of the
machinery runs when tracing is off.
"""

import threading
import time

import pytest

from repro import obs
from repro.obs import (
    EventBus,
    EventRingBuffer,
    NullTracer,
    Tracer,
    disable,
    enable,
)
from repro.obs.sampler import ResourceSampler, rss_bytes


@pytest.fixture(autouse=True)
def _restore_global_tracer():
    yield
    obs.disable()


def _ring_bus():
    bus = EventBus()
    ring = bus.subscribe(EventRingBuffer(capacity=8192))
    return bus, ring


class TestTracerBusEmission:
    def test_span_open_close_events_with_paths(self):
        bus, ring = _ring_bus()
        tracer = Tracer(bus=bus)
        with tracer.span("a"):
            with tracer.span("b"):
                pass
        events = ring.drain()
        opens = [(e.name, e.path) for e in events if e.kind == "span_open"]
        closes = [(e.name, e.path) for e in events if e.kind == "span_close"]
        assert opens == [("a", "run/a"), ("b", "run/a/b")]
        # Inner span closes first; paths match the open-time paths.
        assert closes == [("b", "run/a/b"), ("a", "run/a")]

    def test_span_close_carries_elapsed(self):
        bus, ring = _ring_bus()
        tracer = Tracer(bus=bus)
        with tracer.span("timed"):
            time.sleep(0.005)
        close = [e for e in ring.drain() if e.kind == "span_close"][0]
        assert close.value is not None
        assert close.value >= 0.005

    def test_counter_event_has_increment_and_path(self):
        bus, ring = _ring_bus()
        tracer = Tracer(bus=bus)
        with tracer.span("work"):
            tracer.count("items", 3)
        event = [e for e in ring.drain() if e.kind == "counter"][0]
        assert event.name == "items"
        assert event.value == 3.0
        assert event.path == "run/work"

    def test_gauge_event(self):
        bus, ring = _ring_bus()
        Tracer(bus=bus).gauge("g", 1.5)
        event = [e for e in ring.drain() if e.kind == "gauge"][0]
        assert (event.name, event.value, event.path) == ("g", 1.5, "")

    def test_stage_start_done(self):
        bus, ring = _ring_bus()
        tracer = Tracer(bus=bus)
        with tracer.stage("rules", {"layout": "baseline"}):
            pass
        stages = [e for e in ring.drain() if e.kind == "stage"]
        assert [e.attrs["status"] for e in stages] == ["start", "done"]
        assert stages[0].attrs["layout"] == "baseline"

    def test_stage_error_records_exception_type(self):
        bus, ring = _ring_bus()
        tracer = Tracer(bus=bus)
        with pytest.raises(ValueError):
            with tracer.stage("rules"):
                raise ValueError("boom")
        done = [e for e in ring.drain() if e.kind == "stage"][-1]
        assert done.attrs["status"] == "error"
        assert done.attrs["error_type"] == "ValueError"

    def test_stage_records_nothing_in_profile_tree(self):
        bus, _ = _ring_bus()
        tracer = Tracer(bus=bus)
        with tracer.stage("rules"):
            pass
        assert tracer.root.children == {}

    def test_no_bus_no_events_machinery(self):
        tracer = Tracer()
        assert tracer.bus is None
        handle1 = tracer.stage("a")
        handle2 = tracer.stage("b")
        assert handle1 is handle2  # shared null stage handle
        with tracer.span("x"):
            tracer.count("c")
            tracer.gauge("g", 1.0)  # must not raise without a bus


class TestThreadingContract:
    def test_span_from_foreign_thread_raises(self):
        tracer = Tracer()
        caught: list[BaseException] = []

        def enter():
            try:
                with tracer.span("forbidden"):
                    pass
            except BaseException as exc:
                caught.append(exc)

        thread = threading.Thread(target=enter)
        thread.start()
        thread.join()
        assert len(caught) == 1
        assert isinstance(caught[0], RuntimeError)
        assert "single-threaded" in str(caught[0])
        # The tree is untouched: no half-entered span.
        assert tracer.root.children == {}

    def test_gauges_and_counters_from_foreign_thread(self):
        tracer = Tracer()
        errors: list[BaseException] = []

        def write():
            try:
                for i in range(500):
                    tracer.gauge("thread.g", float(i))
                    tracer.count("thread.c")
            except BaseException as exc:
                errors.append(exc)

        threads = [threading.Thread(target=write) for _ in range(3)]
        for t in threads:
            t.start()
        with tracer.span("main.work"):
            for _ in range(500):
                tracer.count("main.c")
        for t in threads:
            t.join()
        assert errors == []
        report = tracer.report()
        assert report.totals()["thread.c"] == 1500
        assert report.totals()["main.c"] == 500
        assert report.gauges["thread.g"] == 499.0


class TestNullTracerParity:
    def test_public_api_matches_tracer(self):
        def public_methods(cls):
            return {
                name
                for name in dir(cls)
                if not name.startswith("_") and callable(getattr(cls, name))
            }

        assert public_methods(NullTracer) == public_methods(Tracer)

    def test_null_stage_is_shared_noop(self):
        null = NullTracer()
        assert null.stage("a") is null.stage("b")
        with null.stage("x", {"k": 1}):
            pass

    def test_null_bus_is_none_and_report_empty(self):
        null = NullTracer()
        assert null.bus is None
        assert null.elapsed_s() == 0.0
        report = null.report(extra_meta={"status": "ok"})
        assert report.meta == {"status": "ok"}
        assert report.totals() == {}
        assert report.gauges == {}

    def test_disabled_run_emits_no_events_and_no_threads(self):
        bus, ring = _ring_bus()
        null = NullTracer()
        with null.span("x"), null.stage("y"):
            null.count("c")
            null.gauge("g", 1.0)
        after = {t.name for t in threading.enumerate()}
        assert ring.drain() == []  # the bus never saw anything
        # No sampler or chunk-drainer threads appeared.
        assert not any(
            name.startswith(("repro-obs", "repro-chunk")) for name in after
        )


class TestResourceSampler:
    def test_rss_bytes_positive_on_this_platform(self):
        assert rss_bytes() > 0

    def test_sample_once_sets_gauges(self):
        tracer = Tracer()
        sampler = ResourceSampler(tracer, period_s=10.0)
        values = sampler.sample_once()
        assert values["proc.rss_bytes"] > 0
        assert values["proc.rss_peak_bytes"] >= values["proc.rss_bytes"]
        assert "proc.cpu_pct" in values
        for name in ("proc.rss_bytes", "proc.rss_peak_bytes", "proc.cpu_pct"):
            assert name in tracer.gauges

    def test_peak_is_monotone(self):
        sampler = ResourceSampler(Tracer(), period_s=10.0)
        first = sampler.sample_once()["proc.rss_peak_bytes"]
        second = sampler.sample_once()["proc.rss_peak_bytes"]
        assert second >= first

    def test_start_stop_lifecycle(self):
        tracer = Tracer()
        sampler = ResourceSampler(tracer, period_s=0.01)
        assert not sampler.running
        sampler.start()
        sampler.start()  # idempotent
        assert sampler.running
        time.sleep(0.05)
        sampler.stop()
        sampler.stop()  # idempotent
        assert not sampler.running
        assert sampler.samples >= 1
        assert tracer.gauges["proc.rss_peak_bytes"] > 0

    def test_stop_takes_final_sample_even_subperiod(self):
        tracer = Tracer()
        sampler = ResourceSampler(tracer, period_s=60.0)
        sampler.start()
        sampler.stop()
        assert sampler.samples >= 1
        assert "proc.rss_bytes" in tracer.gauges

    def test_context_manager(self):
        tracer = Tracer()
        with ResourceSampler(tracer, period_s=60.0) as sampler:
            assert sampler.running
        assert not sampler.running

    def test_gauge_events_reach_bus_through_tracer(self):
        bus, ring = _ring_bus()
        tracer = Tracer(bus=bus)
        ResourceSampler(tracer, period_s=60.0, bus=bus).sample_once()
        gauges = [e for e in ring.drain() if e.kind == "gauge"]
        names = {e.name for e in gauges}
        assert {"proc.rss_bytes", "proc.rss_peak_bytes", "proc.cpu_pct"} <= names
        # Exactly once each: not duplicated by a direct bus publish.
        assert len(gauges) == 3

    def test_rejects_bad_period(self):
        with pytest.raises(ValueError, match="period_s"):
            ResourceSampler(Tracer(), period_s=0.0)


class TestFlowStageEvents:
    def test_precheck_emits_check_stage(self):
        from repro.converters import BuckConverterDesign
        from repro.core import EmiDesignFlow

        bus, ring = _ring_bus()
        enable(bus=bus)
        try:
            EmiDesignFlow(BuckConverterDesign()).run_precheck()
        finally:
            disable()
        stages = [e for e in ring.drain() if e.kind == "stage"]
        assert [(e.name, e.attrs["status"]) for e in stages] == [
            ("check", "start"),
            ("check", "done"),
        ]
