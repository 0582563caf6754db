"""The telemetry bus: thread-safe event fan-out to pluggable subscribers.

:class:`EventBus` is the streaming counterpart of the aggregating
:class:`~repro.obs.Tracer`: the tracer *also* publishes every span
entry/exit, counter bump and gauge write onto the bus when one is
attached (``obs.enable(bus=...)``), and other producers — the flow's
stage transitions and the resource sampler — publish directly.  Subscribers are plain callables
``(TelemetryEvent) -> None``; three ship here:

* :class:`JsonlSink` — append each event as one JSON line
  (the CLI's ``--events-out``);
* :class:`EventRingBuffer` — a bounded in-memory buffer with a
  ``drain()`` / ``since()`` cursor API; :mod:`repro.service` keeps one
  per job and streams it as SSE from ``GET /jobs/{id}/events``;
* :class:`LiveRenderer` — a single-line console progress display
  (the CLI's ``--live``): current stage, open span path, elapsed
  time, event/counter rates and the coupling-cache hit-rate.

Delivery is serialised under the bus lock, so every subscriber observes
events in strictly increasing ``seq`` order; subscribers must therefore
be fast and must not publish back into the bus.  A subscriber that
raises is counted (``EventBus.subscriber_errors``) and skipped, never
fatal — telemetry must not take down the run it watches.
"""

from __future__ import annotations

import contextlib
import json
import sys
import threading
import time
from collections import deque
from collections.abc import Callable
from pathlib import Path
from typing import Any, TextIO

from .events import EVENT_KINDS, TelemetryEvent

__all__ = [
    "EventBus",
    "JsonlSink",
    "EventRingBuffer",
    "LiveRenderer",
]

Subscriber = Callable[[TelemetryEvent], None]


class EventBus:
    """Thread-safe publish/subscribe hub for :class:`TelemetryEvent`.

    Sequence numbers are assigned under the bus lock, so they are
    strictly monotonic and gap-free across all publishing threads for
    the lifetime of one bus.  A closed bus drops publishes silently
    (producers may outlive the run teardown by a few instructions).
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._seq = 0
        self._subscribers: list[Subscriber] = []
        self._closed = False
        #: Exceptions swallowed while delivering to subscribers.
        self.subscriber_errors = 0
        #: Correlation id stamped onto every published event once set
        #: (a :class:`~repro.obs.Tracer` sets it on attach; the service
        #: layer sets it per job before any event flows).
        self.run_id = ""

    def subscribe(self, subscriber: Subscriber) -> Subscriber:
        """Register a subscriber; returns it (handy for chaining)."""
        with self._lock:
            self._subscribers.append(subscriber)
        return subscriber

    def unsubscribe(self, subscriber: Subscriber) -> None:
        """Remove a subscriber (no-op when it is not registered)."""
        with self._lock, contextlib.suppress(ValueError):
            self._subscribers.remove(subscriber)

    def publish(
        self,
        kind: str,
        name: str,
        *,
        path: str = "",
        value: float | None = None,
        attrs: dict[str, Any] | None = None,
    ) -> TelemetryEvent | None:
        """Stamp ``seq``/``ts`` onto an event and deliver it to subscribers.

        Returns:
            The published event, or ``None`` when the bus is closed.

        Raises:
            ValueError: for a ``kind`` outside :data:`EVENT_KINDS`.
        """
        if kind not in EVENT_KINDS:
            raise ValueError(f"unknown event kind {kind!r}")
        with self._lock:
            if self._closed:
                return None
            self._seq += 1
            event = TelemetryEvent(
                seq=self._seq,
                ts=time.time(),
                kind=kind,
                name=name,
                path=path,
                value=value,
                attrs=dict(attrs) if attrs else {},
                run_id=self.run_id,
            )
            # In-order under-lock delivery is the bus's documented
            # contract (gap-free seq per subscriber); subscribers must be
            # fast and never publish back.
            for subscriber in self._subscribers:
                try:
                    subscriber(event)
                except Exception:
                    self.subscriber_errors += 1
        return event

    @property
    def last_seq(self) -> int:
        """The most recently assigned sequence number (0 before any)."""
        with self._lock:
            return self._seq

    @property
    def closed(self) -> bool:
        """Whether :meth:`close` has run."""
        with self._lock:
            return self._closed

    def close(self) -> None:
        """Stop accepting publishes and close every closeable subscriber.

        Subscribers exposing a ``close()`` method (sinks, renderers) are
        closed in registration order; errors are swallowed and counted.
        Idempotent.
        """
        with self._lock:
            if self._closed:
                return
            self._closed = True
            subscribers = list(self._subscribers)
        for subscriber in subscribers:
            closer = getattr(subscriber, "close", None)
            if closer is None:
                continue
            try:
                closer()
            except Exception:
                # The error count is lock-guarded: publishers on other
                # threads may still be inside publish() right up to the
                # instant they observe _closed.
                with self._lock:
                    self.subscriber_errors += 1


class JsonlSink:
    """Subscriber writing each event as one JSON line to a file.

    Every line is flushed immediately, so the log is tail-able while
    the run is still going and survives a crash up to the last event.
    """

    def __init__(self, path: str | Path):
        self.path = Path(path)
        self._handle: TextIO | None = self.path.open("w", encoding="utf-8")
        #: Events written so far.
        self.events_written = 0

    def __call__(self, event: TelemetryEvent) -> None:
        if self._handle is None:
            return
        self._handle.write(json.dumps(event.to_dict(), sort_keys=True) + "\n")
        self._handle.flush()
        self.events_written += 1

    def close(self) -> None:
        """Flush and close the file (idempotent)."""
        if self._handle is not None:
            handle, self._handle = self._handle, None
            handle.close()


class EventRingBuffer:
    """Bounded in-memory event buffer with a cursor API.

    The service layer's event source: subscribe one of these to the
    bus, then poll :meth:`since` with the last seen ``seq`` (an SSE
    handler's resume cursor) or :meth:`drain` for take-all semantics.
    When the buffer overflows, the oldest events are evicted and
    counted in :attr:`dropped` — a consumer that observes a gap between
    its cursor and the first returned ``seq`` knows it fell behind.
    """

    def __init__(self, capacity: int = 4096):
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {capacity}")
        self.capacity = capacity
        self._lock = threading.Lock()
        self._events: deque[TelemetryEvent] = deque(maxlen=capacity)
        #: Events evicted due to overflow.
        self.dropped = 0

    def __call__(self, event: TelemetryEvent) -> None:
        with self._lock:
            if len(self._events) == self.capacity:
                self.dropped += 1
            self._events.append(event)

    def __len__(self) -> int:
        with self._lock:
            return len(self._events)

    def drain(self) -> list[TelemetryEvent]:
        """Return and remove every buffered event (oldest first)."""
        with self._lock:
            out = list(self._events)
            self._events.clear()
        return out

    def since(self, seq: int) -> list[TelemetryEvent]:
        """Events with ``event.seq > seq``, oldest first (non-destructive)."""
        with self._lock:
            return [e for e in self._events if e.seq > seq]

    def snapshot(self) -> list[TelemetryEvent]:
        """A non-destructive copy of the buffer (oldest first)."""
        with self._lock:
            return list(self._events)


class LiveRenderer:
    """Single-line console progress display driven by the event stream.

    Maintains a compact rolling status — elapsed wall time, the current
    flow stage, the innermost open span path, total event and counter
    throughput and the coupling-cache hit-rate —
    and repaints it (carriage-return overwrite) at most every
    ``min_interval_s``.  Stage transitions always repaint immediately
    and stick as their own lines, so the scrollback reads as a stage
    log.  Writes to ``stream`` (default stderr, keeping stdout clean
    for the command's own output).
    """

    #: Counter names that feed the cache hit-rate readout.
    _HIT_COUNTERS = ("coupling.cache_hits",)
    _MISS_COUNTERS = ("coupling.cache_misses",)

    def __init__(
        self,
        stream: TextIO | None = None,
        min_interval_s: float = 0.2,
        width: int = 100,
    ):
        self.stream = stream if stream is not None else sys.stderr
        self.min_interval_s = min_interval_s
        self.width = width
        self._t0 = time.monotonic()
        self._last_paint = 0.0
        self._events_seen = 0
        self._stage = ""
        self._span_path = ""
        self._counters: dict[str, float] = {}
        self._rss_bytes: float | None = None
        self._closed = False

    # -- event ingestion ---------------------------------------------------

    def __call__(self, event: TelemetryEvent) -> None:
        if self._closed:
            return
        self._events_seen += 1
        repaint_now = False
        if event.kind == "stage":
            status = str(event.attrs.get("status", "start"))
            if status == "start":
                self._stage = event.name
            elif self._stage == event.name:
                self._stage = f"{event.name}:{status}"
            # Pin the finished line into scrollback before the new stage.
            self._println(self._compose())
            repaint_now = True
        elif event.kind == "span_open":
            self._span_path = event.path
        elif event.kind == "span_close":
            self._span_path = event.path.rsplit("/", 1)[0] if "/" in event.path else ""
        elif event.kind == "counter":
            self._counters[event.name] = (
                self._counters.get(event.name, 0.0) + (event.value or 0.0)
            )
        elif event.kind == "gauge":
            if event.name == "proc.rss_peak_bytes" and event.value is not None:
                self._rss_bytes = event.value
        now = time.monotonic()
        if repaint_now or now - self._last_paint >= self.min_interval_s:
            self._paint()

    # -- rendering ---------------------------------------------------------

    def _cache_rate(self) -> float | None:
        hits = sum(self._counters.get(name, 0.0) for name in self._HIT_COUNTERS)
        misses = sum(self._counters.get(name, 0.0) for name in self._MISS_COUNTERS)
        lookups = hits + misses
        return hits / lookups if lookups > 0 else None

    def _compose(self) -> str:
        elapsed = time.monotonic() - self._t0
        parts = [f"[{elapsed:7.1f}s]"]
        if self._stage:
            parts.append(self._stage)
        if self._span_path:
            parts.append(self._span_path)
        rate = self._events_seen / elapsed if elapsed > 0 else 0.0
        parts.append(f"ev {self._events_seen} ({rate:.0f}/s)")
        cache = self._cache_rate()
        if cache is not None:
            parts.append(f"cache {cache * 100:.0f}%")
        if self._rss_bytes is not None:
            parts.append(f"rss {self._rss_bytes / 1e6:.0f}MB")
        line = " | ".join(parts)
        if len(line) > self.width:
            line = line[: self.width - 1] + "…"
        return line

    def _paint(self) -> None:
        self._last_paint = time.monotonic()
        try:
            self.stream.write("\r\x1b[2K" + self._compose())
            self.stream.flush()
        except (OSError, ValueError):
            self._closed = True

    def _println(self, line: str) -> None:
        try:
            self.stream.write("\r\x1b[2K" + line + "\n")
            self.stream.flush()
        except (OSError, ValueError):
            self._closed = True

    def close(self) -> None:
        """Paint the final state and terminate the status line."""
        if self._closed:
            return
        self._closed = True
        with contextlib.suppress(OSError, ValueError):
            self.stream.write("\r\x1b[2K" + self._compose() + "\n")
            self.stream.flush()
