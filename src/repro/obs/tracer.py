"""Hierarchical tracing spans and named counters/gauges.

The instrumentation backbone of the repository: every flow stage and every
solver hot path opens a :meth:`Tracer.span` and bumps counters through the
module-level helpers.  Two implementations share the interface:

* :class:`Tracer` — the real thing: a profile tree of :class:`Span` nodes
  (wall time, call counts, parent/child nesting, per-span counters);
* :class:`NullTracer` — the default: every operation is a no-op on shared
  singletons, so instrumented code costs a dict lookup and an attribute
  call when tracing is off.  Tier-1 test timing must not move.

Spans aggregate *by name within their parent* (a profile tree, not an
event log): entering ``peec.self_inductance`` twice under the same
parent yields one node with ``count == 2`` and the summed wall time.  That
keeps reports bounded no matter how many times a hot path runs.

The module-level :func:`get_tracer` / :func:`set_tracer` / :func:`enable` /
:func:`disable` manage a process-global tracer.  **Threading contract:**
the span stack is single-threaded — :meth:`Tracer.span` raises
:class:`RuntimeError` when entered from any thread other than the one
that created the tracer (a profile tree shared across threads would
corrupt silently).  Counters and gauges, in contrast, are
lock-protected and may be written from any thread — the background
:class:`~repro.obs.ResourceSampler` does exactly that.

For *concurrent* instrumented runs in one process — the service layer's
worker threads each tracing their own job — :func:`set_thread_tracer`
installs a per-thread override that :func:`get_tracer` prefers over the
process-global tracer.  Each worker creates its :class:`Tracer` on its
own thread (so the span-stack owner is right), installs it for the
duration of the job, and restores the previous override in a ``finally``
block; other threads keep seeing the global tracer.

When an :class:`~repro.obs.EventBus` is attached (``Tracer(bus=...)`` or
``enable(bus=...)``), every span entry/exit, counter bump, gauge write
and stage transition additionally publishes a
:class:`~repro.obs.TelemetryEvent` — the streaming half of the obs
stack.  Without a bus (and always through :class:`NullTracer`) none of
that machinery runs.
"""

from __future__ import annotations

import threading
import time
import tracemalloc
from collections.abc import Iterator
from types import TracebackType
from typing import TYPE_CHECKING, Any

from .runid import new_run_id

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from .bus import EventBus
    from .report import RunReport

__all__ = [
    "Span",
    "Tracer",
    "NullTracer",
    "NULL_TRACER",
    "get_tracer",
    "set_tracer",
    "set_thread_tracer",
    "enable",
    "disable",
]


class Span:
    """One node of the profile tree.

    Attributes:
        name: hierarchical dotted name (see docs/OBSERVABILITY.md for the
            naming convention, e.g. ``"peec.self_inductance"``).
        wall_s: accumulated wall time over all entries [s].
        count: number of times the span was entered.
        children: child spans keyed by name.
        counters: counter increments attributed to this span (while it was
            the innermost open span).
    """

    __slots__ = ("name", "wall_s", "count", "children", "counters")

    def __init__(self, name: str):
        self.name = name
        self.wall_s = 0.0
        self.count = 0
        self.children: dict[str, Span] = {}
        self.counters: dict[str, float] = {}

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"Span({self.name!r}, count={self.count}, wall_s={self.wall_s:.6f})"

    def child(self, name: str) -> "Span":
        """The child span of that name, created on first use."""
        node = self.children.get(name)
        if node is None:
            node = Span(name)
            self.children[name] = node
        return node

    def walk(self, depth: int = 0) -> Iterator[tuple[int, "Span"]]:
        """Depth-first (pre-order) iteration as ``(depth, span)`` pairs."""
        yield depth, self
        for node in self.children.values():
            yield from node.walk(depth + 1)

    def walk_paths(
        self, prefix: tuple[str, ...] = ()
    ) -> Iterator[tuple[tuple[str, ...], "Span"]]:
        """Pre-order iteration as ``(path, span)`` pairs.

        ``path`` is the tuple of span names from this node down, so two
        spans of the same name under different parents stay distinct —
        the run-against-run diff keys its deltas on these paths.
        """
        path = (*prefix, self.name)
        yield path, self
        for node in self.children.values():
            yield from node.walk_paths(path)

    def find(self, name: str) -> "Span | None":
        """First span of that exact name in the subtree (pre-order)."""
        for _, node in self.walk():
            if node.name == name:
                return node
        return None

    def total_counters(self) -> dict[str, float]:
        """Counter totals aggregated over the whole subtree."""
        totals: dict[str, float] = {}
        for _, node in self.walk():
            for key, value in node.counters.items():
                totals[key] = totals.get(key, 0.0) + value
        return totals

    def to_dict(self) -> dict[str, Any]:
        """JSON-ready nested representation."""
        out: dict[str, Any] = {
            "name": self.name,
            "wall_s": self.wall_s,
            "count": self.count,
        }
        if self.counters:
            out["counters"] = dict(self.counters)
        if self.children:
            out["children"] = [c.to_dict() for c in self.children.values()]
        return out

    @classmethod
    def from_dict(cls, data: dict[str, Any]) -> "Span":
        """Rebuild a span subtree from :meth:`to_dict` output."""
        span = cls(str(data["name"]))
        span.wall_s = float(data.get("wall_s", 0.0))
        span.count = int(data.get("count", 0))
        span.counters = {
            str(k): float(v) for k, v in data.get("counters", {}).items()
        }
        for child in data.get("children", []):
            node = cls.from_dict(child)
            span.children[node.name] = node
        return span


class _SpanHandle:
    """Context manager for one entry of one span.

    ``elapsed_s`` holds this entry's wall time after exit — the placer
    sources its report runtime from it.
    """

    __slots__ = ("_tracer", "_name", "_span", "_t0", "elapsed_s")

    def __init__(self, tracer: "Tracer", name: str):
        self._tracer = tracer
        self._name = name
        self._span: Span | None = None
        self._t0 = 0.0
        self.elapsed_s: float | None = None

    def __enter__(self) -> "_SpanHandle":
        tracer = self._tracer
        if threading.get_ident() != tracer._thread_ident:
            raise RuntimeError(
                f"Tracer.span({self._name!r}) entered from thread "
                f"{threading.current_thread().name!r}: the span stack is "
                "single-threaded (owned by the thread that created the "
                "tracer). Counters and gauges are thread-safe; spans are not."
            )
        stack = tracer._stack
        span = stack[-1].child(self._name)
        span.count += 1
        stack.append(span)
        self._span = span
        if tracer.mem_trace and len(stack) == 2:
            # Entering a top-level span: measure its peak in isolation.
            tracemalloc.reset_peak()
        bus = tracer.bus
        if bus is not None:
            bus.publish("span_open", self._name, path=tracer._path())
        self._t0 = time.perf_counter()
        return self

    def __exit__(
        self,
        exc_type: type[BaseException] | None,
        exc: BaseException | None,
        tb: TracebackType | None,
    ) -> bool:
        elapsed = time.perf_counter() - self._t0
        self.elapsed_s = elapsed
        assert self._span is not None
        self._span.wall_s += elapsed
        tracer = self._tracer
        bus = tracer.bus
        if bus is not None:
            bus.publish(
                "span_close", self._name, path=tracer._path(), value=elapsed
            )
        tracer._stack.pop()
        if tracer.mem_trace and len(tracer._stack) == 1:
            current, peak = tracemalloc.get_traced_memory()
            tracer.gauge(f"mem.{self._name}.current_bytes", float(current))
            tracer.gauge(f"mem.{self._name}.peak_bytes", float(peak))
        return False


class _NullSpanHandle:
    """Shared do-nothing stand-in for :class:`_SpanHandle`."""

    __slots__ = ()

    elapsed_s = None

    def __enter__(self) -> "_NullSpanHandle":
        return self

    def __exit__(
        self,
        exc_type: type[BaseException] | None,
        exc: BaseException | None,
        tb: TracebackType | None,
    ) -> bool:
        return False


_NULL_SPAN_HANDLE = _NullSpanHandle()


class _StageHandle:
    """Context manager publishing ``stage`` start/done/error events."""

    __slots__ = ("_bus", "_name", "_attrs")

    def __init__(self, bus: "EventBus", name: str, attrs: dict[str, Any] | None):
        self._bus = bus
        self._name = name
        self._attrs = attrs

    def __enter__(self) -> "_StageHandle":
        attrs: dict[str, Any] = {"status": "start"}
        if self._attrs:
            attrs.update(self._attrs)
        self._bus.publish("stage", self._name, attrs=attrs)
        return self

    def __exit__(
        self,
        exc_type: type[BaseException] | None,
        exc: BaseException | None,
        tb: TracebackType | None,
    ) -> bool:
        status = "done" if exc_type is None else "error"
        attrs: dict[str, Any] = {"status": status}
        if exc_type is not None:
            attrs["error_type"] = exc_type.__name__
        self._bus.publish("stage", self._name, attrs=attrs)
        return False


class _NullStageHandle:
    """Shared do-nothing stand-in for :class:`_StageHandle`."""

    __slots__ = ()

    def __enter__(self) -> "_NullStageHandle":
        return self

    def __exit__(
        self,
        exc_type: type[BaseException] | None,
        exc: BaseException | None,
        tb: TracebackType | None,
    ) -> bool:
        return False


_NULL_STAGE_HANDLE = _NullStageHandle()


class Tracer:
    """Collects a profile tree plus global gauges for one run.

    Args:
        meta: free-form metadata recorded into the final report (command
            line, benchmark name, …).
        mem_trace: when True, run :mod:`tracemalloc` for the tracer's
            lifetime and record ``mem.<span>.peak_bytes`` /
            ``mem.<span>.current_bytes`` gauges for every *top-level*
            span (a direct child of the root).  Allocation tracing slows
            the interpreter noticeably; it is strictly opt-in.
        bus: when set, every span entry/exit, counter bump, gauge write
            and stage transition publishes a telemetry event onto this
            :class:`~repro.obs.EventBus` (see docs/OBSERVABILITY.md,
            "Event stream & live mode").
        run_id: correlation id for this run; minted fresh
            (:func:`~repro.obs.new_run_id`) when omitted.  Stamped into
            ``meta["run_id"]`` and onto the attached bus so every
            report, event and artifact of the run carries the same id.
    """

    enabled = True

    def __init__(
        self,
        meta: dict[str, Any] | None = None,
        mem_trace: bool = False,
        bus: "EventBus | None" = None,
        run_id: str | None = None,
    ):
        self.root = Span("run")
        self.root.count = 1
        self.meta: dict[str, Any] = dict(meta or {})
        if run_id is None:
            run_id = str(self.meta.get("run_id") or "") or new_run_id()
        self.run_id = run_id
        self.meta["run_id"] = run_id
        self.gauges: dict[str, float] = {}
        self.mem_trace = mem_trace
        self.bus = bus
        if bus is not None and not bus.run_id:
            bus.run_id = run_id
        self._mem_started_here = False
        self._stack: list[Span] = [self.root]
        # The span stack belongs to the creating thread; counters and
        # gauges are shared and guarded by the lock below.
        self._thread_ident = threading.get_ident()
        self._lock = threading.Lock()
        if mem_trace and not tracemalloc.is_tracing():
            tracemalloc.start()
            self._mem_started_here = True
        self._t0 = time.perf_counter()

    def _path(self) -> str:
        """The ``/``-joined open-span path (``run/...``), owner thread only."""
        return "/".join(span.name for span in self._stack)

    def span(self, name: str) -> _SpanHandle:
        """A context manager timing one entry of the named span.

        Raises:
            RuntimeError: on ``__enter__`` from a thread other than the
                tracer's owner (the span stack is single-threaded).
        """
        return _SpanHandle(self, name)

    def stage(
        self, name: str, attrs: dict[str, Any] | None = None
    ) -> _StageHandle | _NullStageHandle:
        """A context manager publishing ``stage`` start/done/error events.

        Purely an event-stream construct: it records nothing in the
        profile tree and is a shared no-op when no bus is attached.
        """
        bus = self.bus
        if bus is None:
            return _NULL_STAGE_HANDLE
        return _StageHandle(bus, name, attrs)

    def count(self, name: str, n: float = 1) -> None:
        """Add ``n`` to a named counter on the innermost open span.

        Thread-safe; off-owner-thread increments attach to whichever
        span is innermost at that instant (spans only change on the
        owner thread).
        """
        on_owner = threading.get_ident() == self._thread_ident
        with self._lock:
            counters = self._stack[-1].counters
            counters[name] = counters.get(name, 0) + n
        bus = self.bus
        if bus is not None:
            bus.publish(
                "counter",
                name,
                path=self._path() if on_owner else "",
                value=float(n),
            )

    def gauge(self, name: str, value: float) -> None:
        """Record a point-in-time value (last write wins; thread-safe)."""
        with self._lock:
            self.gauges[name] = float(value)
        bus = self.bus
        if bus is not None:
            bus.publish("gauge", name, value=float(value))

    def elapsed_s(self) -> float:
        """Wall time since the tracer was created [s]."""
        return time.perf_counter() - self._t0

    def stop_mem_trace(self) -> None:
        """Stop :mod:`tracemalloc` if this tracer was the one to start it."""
        if self._mem_started_here and tracemalloc.is_tracing():
            tracemalloc.stop()
            self._mem_started_here = False

    def report(self, extra_meta: dict[str, Any] | None = None) -> "RunReport":
        """Freeze the current state into a :class:`~repro.obs.RunReport`.

        The root span's wall time is set to the tracer's lifetime so the
        table's percentage column has a stable denominator.
        """
        from .report import RunReport

        self.root.wall_s = self.elapsed_s()
        meta = dict(self.meta)
        if extra_meta:
            meta.update(extra_meta)
        with self._lock:
            gauges = dict(self.gauges)
        return RunReport(root=self.root, gauges=gauges, meta=meta)


class NullTracer:
    """The disabled tracer: every operation is a cheap no-op.

    Installed by default; instrumented code paths therefore cost one
    attribute lookup and one call per span/counter site, which is
    unmeasurable against any solver work.  API parity with
    :class:`Tracer` (same public method set) is asserted by the tests,
    so instrumented code never needs an ``isinstance`` check.
    """

    enabled = False
    mem_trace = False
    bus: "EventBus | None" = None
    run_id = ""

    def span(self, name: str) -> _NullSpanHandle:
        """Return the shared no-op span handle."""
        return _NULL_SPAN_HANDLE

    def stage(
        self, name: str, attrs: dict[str, Any] | None = None
    ) -> _NullStageHandle:
        """Return the shared no-op stage handle (no event is emitted)."""
        return _NULL_STAGE_HANDLE

    def count(self, name: str, n: float = 1) -> None:
        """Discard the increment."""

    def gauge(self, name: str, value: float) -> None:
        """Discard the value."""

    def elapsed_s(self) -> float:
        """Always 0.0 (the null tracer keeps no clock)."""
        return 0.0

    def stop_mem_trace(self) -> None:
        """No memory tracing to stop."""

    def report(self, extra_meta: dict[str, Any] | None = None) -> "RunReport":
        """An empty report (API parity; the null tracer records nothing)."""
        from .report import RunReport

        return RunReport(root=Span("run"), gauges={}, meta=dict(extra_meta or {}))


NULL_TRACER = NullTracer()

_tracer: Tracer | NullTracer = NULL_TRACER

#: Per-thread tracer overrides (service worker threads trace one job
#: each without disturbing the process-global tracer).
_thread_tracers = threading.local()


def get_tracer() -> Tracer | NullTracer:
    """The active tracer for this thread.

    A per-thread override installed via :func:`set_thread_tracer` wins;
    otherwise the process-global tracer (the null tracer unless
    :func:`enable` ran).
    """
    override: Tracer | NullTracer | None = getattr(_thread_tracers, "tracer", None)
    if override is not None:
        return override
    return _tracer


def set_tracer(tracer: Tracer | NullTracer) -> Tracer | NullTracer:
    """Install ``tracer`` as the global tracer and return it."""
    global _tracer
    _tracer = tracer
    return tracer


def set_thread_tracer(
    tracer: Tracer | NullTracer | None,
) -> Tracer | NullTracer | None:
    """Install a tracer override for the *calling thread only*.

    ``None`` clears the override (this thread falls back to the global
    tracer).  Returns the previous override so callers can restore it::

        previous = set_thread_tracer(job_tracer)
        try:
            ...  # instrumented work, isolated from other threads
        finally:
            set_thread_tracer(previous)

    The span-stack ownership rule is unchanged: the installing thread
    should also be the one that *created* the tracer, or spans will
    refuse to open.
    """
    previous: Tracer | NullTracer | None = getattr(_thread_tracers, "tracer", None)
    _thread_tracers.tracer = tracer
    return previous


def enable(
    meta: dict[str, Any] | None = None,
    mem_trace: bool = False,
    bus: "EventBus | None" = None,
    run_id: str | None = None,
) -> Tracer:
    """Install (and return) a fresh global :class:`Tracer`."""
    tracer = Tracer(meta=meta, mem_trace=mem_trace, bus=bus, run_id=run_id)
    set_tracer(tracer)
    return tracer


def disable() -> Tracer | NullTracer:
    """Restore the null tracer; returns the tracer that was active."""
    previous = _tracer
    set_tracer(NULL_TRACER)
    return previous
