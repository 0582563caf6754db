"""Hammer the telemetry stack's locks from many threads at once.

Publishers, subscriber churn, tracer traffic and sampler shutdown all
run concurrently against one EventBus.  The assertions are the
concurrency contracts of the bus, the tracer and the sampler:

* sequence numbers stay gap-free and delivery stays in-order no matter
  how the threads interleave;
* a subscriber that unsubscribes mid-storm stops receiving exactly at a
  sequence boundary (no torn delivery);
* a close racing the publishers delivers every event published before it
  exactly once, and nothing after it;
* the sampler's stop joins its thread, and a bounded ring buffer drains
  or evicts every event exactly once.
"""

from __future__ import annotations

import threading

import pytest

from repro.obs import Tracer
from repro.obs.bus import EventBus, EventRingBuffer
from repro.obs.sampler import ResourceSampler

PUBLISHERS = 4
EVENTS_PER_PUBLISHER = 300


class TestBusHammer:
    def test_publish_churn_and_sampler_stop(self):
        bus = EventBus()
        # Headroom for the span/counter/gauge traffic that shares the
        # bus with the publishers.
        ring = EventRingBuffer(capacity=8192)
        bus.subscribe(ring)
        tracer = Tracer(bus=bus)
        sampler = ResourceSampler(tracer, period_s=0.005, bus=bus).start()

        # Parties: the publishers, the tracer thread, the churner,
        # and the main thread releasing them all at once.
        start = threading.Barrier(PUBLISHERS + 3)
        stop_churn = threading.Event()

        def publisher(k: int) -> None:
            start.wait()
            for i in range(EVENTS_PER_PUBLISHER):
                bus.publish("counter", f"hammer.p{k}", value=float(i))

        def churner() -> None:
            # Subscribe/unsubscribe a throwaway subscriber in a loop:
            # subscriber-list mutation races against delivery.
            start.wait()
            while not stop_churn.is_set():
                seen: list[int] = []
                sub = bus.subscribe(lambda e, seen=seen: seen.append(e.seq))
                bus.unsubscribe(sub)
                # In-order contract: whatever the throwaway saw is an
                # increasing, contiguous run.
                assert seen == sorted(seen)
                if seen:
                    assert seen[-1] - seen[0] == len(seen) - 1

        def tracer_traffic() -> None:
            start.wait()
            # Span stacks are single-threaded (owned by the creating
            # thread), so this thread gets its own tracer on the same
            # bus; counters on the shared tracer are thread-safe.
            own = Tracer(bus=bus)
            for i in range(200):
                with own.span(f"hammer.span{i % 7}"):
                    tracer.count("hammer.ticks", 1)

        threads = [
            threading.Thread(target=publisher, args=(k,))
            for k in range(PUBLISHERS)
        ]
        threads.append(threading.Thread(target=tracer_traffic))
        churn = threading.Thread(target=churner)
        churn.start()
        for t in threads:
            t.start()
        start.wait()
        for t in threads:
            t.join()
        stop_churn.set()
        churn.join()
        sampler.stop()
        bus.close()

        # Gap-free seq across every publishing thread (publishers,
        # tracer spans/counters, sampler gauges).
        events = ring.snapshot()
        seqs = [e.seq for e in events]
        assert ring.dropped == 0
        assert seqs == list(range(1, len(seqs) + 1))
        assert bus.last_seq == len(seqs)
        by_name: dict[str, list[float]] = {}
        for e in events:
            if e.name.startswith("hammer.p"):
                by_name.setdefault(e.name, []).append(e.value)
        assert len(by_name) == PUBLISHERS
        for values in by_name.values():
            # Per-publisher order survives the interleaving.
            assert values == [float(i) for i in range(EVENTS_PER_PUBLISHER)]

    def test_concurrent_close_races_publishers_cleanly(self):
        for _ in range(20):
            bus = EventBus()
            ring = bus.subscribe(EventRingBuffer(capacity=4096))
            published: list[int] = []

            def pump(bus=bus, published=published) -> None:
                while True:
                    event = bus.publish("log", "m")
                    if event is None:
                        return
                    published.append(event.seq)

            threads = [threading.Thread(target=pump) for _ in range(3)]
            for t in threads:
                t.start()
            bus.close()
            for t in threads:
                t.join()
            # Every event published before the close reached the ring
            # exactly once: it is either retained or counted as evicted
            # (the ring is bounded, and how many events the publishers
            # get out before the close lands depends on the host).
            # What is retained is a gap-free tail ending at last_seq;
            # nothing after the close is delivered.
            retained = [event.seq for event in ring.snapshot()]
            assert len(retained) + ring.dropped == bus.last_seq
            assert retained == list(
                range(bus.last_seq - len(retained) + 1, bus.last_seq + 1)
            )
            assert sorted(published) == list(range(1, bus.last_seq + 1))

    def test_sampler_start_stop_cycles(self):
        tracer = Tracer()
        sampler = ResourceSampler(tracer, period_s=0.002)
        for _ in range(5):
            sampler.start()
            sampler.stop()
        # stop() joins the daemon thread: nothing is left running.
        assert sampler._thread is None


@pytest.mark.parametrize("threads", [2, 8])
def test_ring_buffer_concurrent_drain(threads: int) -> None:
    bus = EventBus()
    ring = bus.subscribe(EventRingBuffer(capacity=64))
    drained: list[int] = []
    done = threading.Event()

    def drainer() -> None:
        while not done.is_set():
            drained.extend(e.seq for e in ring.drain())
        drained.extend(e.seq for e in ring.drain())

    def pump() -> None:
        for _ in range(100):
            bus.publish("log", "m")

    pumps = [threading.Thread(target=pump) for _ in range(threads)]
    sink = threading.Thread(target=drainer)
    sink.start()
    for t in pumps:
        t.start()
    for t in pumps:
        t.join()
    done.set()
    sink.join()
    # One drainer against an overflowing ring: every event is either
    # drained exactly once (in order) or counted as evicted — none
    # vanish silently and none duplicate.
    assert drained == sorted(set(drained))
    assert len(drained) + ring.dropped == threads * 100
