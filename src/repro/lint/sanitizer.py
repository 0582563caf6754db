"""Runtime lock sanitizer — conlint's dynamic half.

Where :mod:`repro.lint.rules_concurrency` reasons about lock discipline
statically, this module *watches it happen*: an opt-in instrumented-lock
layer that records per-thread acquisition stacks at test time and turns
two classes of latent deadlock/starvation bugs into hard findings:

* **lock-order inversions** — the sanitizer maintains a global
  lock-order graph (edge ``A -> B`` whenever ``B`` is acquired while
  ``A`` is held, with the acquisition stack of the first witness); the
  moment an acquisition would close a cycle, a
  :class:`SanitizerFinding` records both conflicting stacks.  Unlike a
  real deadlock this does not require the unlucky interleaving: taking
  the two orders at *any* time during the run — even sequentially, even
  on one thread — is enough evidence.
* **over-threshold hold times** — a lock held longer than
  ``hold_threshold_s`` (default 1.0 s) starves every other thread;
  telemetry locks in this codebase are meant to be held for
  microseconds.

Activation is strictly opt-in, in one of two ways:

* programmatically::

      from repro.lint import sanitized

      with sanitized() as sanitizer:
          ...  # threading.Lock()/RLock() created here are instrumented
      assert not sanitizer.findings

* for a whole pytest run, ``REPRO_EMI_LOCK_SANITIZER=1`` — the test
  suite's ``conftest.py`` installs one session sanitizer and fails any
  test on whose watch a finding appeared.  ``make race-check`` runs the
  threaded obs/parallel suites exactly this way.

:func:`install` monkeypatches :func:`threading.Lock` /
:func:`threading.RLock` with instrumenting factories, so *any* lock
created while active — including ones inside :class:`threading.Event`
or :class:`threading.Condition` — is tracked; locks created before
install are untouched.  The instrumented wrappers implement the full
lock protocol (``acquire``/``release``/``locked``/context manager, plus
the ``_release_save``/``_acquire_restore``/``_is_owned`` hooks
:class:`threading.Condition` relies on), so patched code behaves
identically modulo bookkeeping.  Never enable in production hot paths:
every acquisition captures a Python stack.
"""

from __future__ import annotations

import _thread
import os
import threading
import time
import traceback
from collections.abc import Iterator
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Any

__all__ = [
    "SanitizerFinding",
    "LockSanitizer",
    "install",
    "uninstall",
    "active",
    "sanitized",
    "ENV_VAR",
]

#: Environment variable that asks the test harness to install a sanitizer.
ENV_VAR = "REPRO_EMI_LOCK_SANITIZER"

#: Stack frames to keep per acquisition sample.
_STACK_DEPTH = 12


def _thread_name() -> str:
    """Current thread's name, without :func:`threading.current_thread`.

    ``current_thread()`` creates and *registers* a ``_DummyThread`` when
    called from a thread that is still bootstrapping (e.g. from the
    ``Event.set`` inside ``Thread._bootstrap_inner``) — and that dummy's
    own ``Event`` would re-enter the sanitizer, recursing forever.  A
    plain read of the registry has no side effects.
    """
    ident = threading.get_ident()
    registry = getattr(threading, "_active", {})
    thread = registry.get(ident)
    return thread.name if thread is not None else f"thread-{ident}"


def _capture_stack() -> str:
    """The current acquisition stack, sanitizer frames stripped."""
    frames = traceback.extract_stack(limit=_STACK_DEPTH + 4)
    kept = [f for f in frames if os.path.basename(f.filename) != "sanitizer.py"]
    return "".join(traceback.format_list(kept[-_STACK_DEPTH:]))


@dataclass(frozen=True)
class SanitizerFinding:
    """One runtime lock-discipline violation.

    Attributes:
        kind: ``"lock-order-inversion"`` or ``"hold-time"``.
        message: human description naming the locks involved.
        thread: name of the thread that triggered the finding.
        stack: acquisition stack at the trigger point.
        other_stack: for inversions, the stack of the conflicting
            (earlier, opposite-order) acquisition.
    """

    kind: str
    message: str
    thread: str
    stack: str = ""
    other_stack: str = ""

    def render(self) -> str:
        """Multi-line human rendering for assertion messages."""
        parts = [f"[{self.kind}] {self.message} (thread {self.thread})"]
        if self.stack:
            parts.append("acquisition stack:\n" + self.stack)
        if self.other_stack:
            parts.append("conflicting acquisition stack:\n" + self.other_stack)
        return "\n".join(parts)


class _Held:
    """Bookkeeping for one currently-held instrumented lock."""

    __slots__ = ("lock", "t_acquired", "count")

    def __init__(self, lock: "_InstrumentedLock", t_acquired: float):
        self.lock = lock
        self.t_acquired = t_acquired
        self.count = 1


class LockSanitizer:
    """Collects lock-order and hold-time evidence from instrumented locks.

    All internal state is guarded by one raw ``_thread`` lock (a raw
    lock so the sanitizer can never instrument itself); no user code is
    ever called while it is held.

    Attributes:
        findings: violations recorded so far (append-only).
        acquisitions: total tracked acquisitions (re-entries included).
        locks_created: instrumented locks handed out by the factories.
    """

    def __init__(self, hold_threshold_s: float = 1.0):
        if hold_threshold_s <= 0:
            raise ValueError(f"hold_threshold_s must be > 0, got {hold_threshold_s}")
        self.hold_threshold_s = hold_threshold_s
        self.findings: list[SanitizerFinding] = []
        self.acquisitions = 0
        self.locks_created = 0
        self._state = _thread.allocate_lock()
        #: thread ident -> stack of currently held instrumented locks.
        self._held: dict[int, list[_Held]] = {}
        #: lock-order edges: (outer id, inner id) -> witness stack.
        self._edges: dict[tuple[int, int], str] = {}
        #: adjacency over lock ids for cycle detection.
        self._adjacency: dict[int, set[int]] = {}
        #: lock id -> display name (creation site).
        self._names: dict[int, str] = {}
        self._counter = 0

    # -- factories ---------------------------------------------------------

    def lock(self, name: str = "") -> "_InstrumentedLock":
        """A new instrumented non-reentrant lock."""
        return _InstrumentedLock(self, _REAL_LOCK(), reentrant=False, name=name)

    def rlock(self, name: str = "") -> "_InstrumentedLock":
        """A new instrumented reentrant lock."""
        return _InstrumentedLock(self, _REAL_RLOCK(), reentrant=True, name=name)

    # -- registration ------------------------------------------------------

    def _register(self, lock: "_InstrumentedLock", name: str) -> int:
        with self._state:
            self._counter += 1
            self.locks_created += 1
            ident = self._counter
            self._names[ident] = name or f"lock#{ident}"
        return ident

    def _name(self, ident: int) -> str:
        return self._names.get(ident, f"lock#{ident}")

    # -- acquisition/release notes ----------------------------------------

    def _note_acquired(self, lock: "_InstrumentedLock") -> None:
        tid = threading.get_ident()
        now = time.monotonic()
        thread_name = _thread_name()
        inversion: tuple[str, str] | None = None
        with self._state:
            self.acquisitions += 1
            held = self._held.setdefault(tid, [])
            for entry in held:
                if entry.lock is lock:  # re-entrant re-acquisition
                    entry.count += 1
                    return
            if held:
                stack = _capture_stack()
                for entry in held:
                    edge = (entry.lock._ident, lock._ident)
                    if edge[0] == edge[1]:
                        continue
                    if edge not in self._edges:
                        # New edge: does the opposite order already exist?
                        witness = self._reverse_witness(edge[1], edge[0])
                        self._edges[edge] = stack
                        self._adjacency.setdefault(edge[0], set()).add(edge[1])
                        if witness is not None and inversion is None:
                            inversion = (
                                f"lock '{self._name(edge[1])}' acquired while "
                                f"holding '{self._name(edge[0])}', but the "
                                "opposite order was observed earlier — "
                                "deadlock when taken concurrently",
                                witness,
                            )
            held.append(_Held(lock, now))
        if inversion is not None:
            self._record(
                SanitizerFinding(
                    kind="lock-order-inversion",
                    message=inversion[0],
                    thread=thread_name,
                    stack=_capture_stack(),
                    other_stack=inversion[1],
                )
            )

    def _reverse_witness(self, start: int, goal: int) -> str | None:
        """Witness stack when ``goal`` is reachable from ``start``."""
        direct = self._edges.get((start, goal))
        if direct is not None:
            return direct
        stack, seen = [start], {start}
        while stack:
            node = stack.pop()
            for nxt in self._adjacency.get(node, ()):
                if nxt == goal:
                    return self._edges.get((node, goal), "")
                if nxt not in seen:
                    seen.add(nxt)
                    stack.append(nxt)
        return None

    def _note_released(self, lock: "_InstrumentedLock") -> None:
        tid = threading.get_ident()
        now = time.monotonic()
        thread_name = _thread_name()
        hold_s: float | None = None
        with self._state:
            held = self._held.get(tid, [])
            for index in range(len(held) - 1, -1, -1):
                entry = held[index]
                if entry.lock is lock:
                    entry.count -= 1
                    if entry.count == 0:
                        held.pop(index)
                        hold_s = now - entry.t_acquired
                    break
        if hold_s is not None and hold_s > self.hold_threshold_s:
            self._record(
                SanitizerFinding(
                    kind="hold-time",
                    message=(
                        f"lock '{self._name(lock._ident)}' held for "
                        f"{hold_s:.3f} s (threshold "
                        f"{self.hold_threshold_s:.3f} s) — every other "
                        "thread on this lock starved meanwhile"
                    ),
                    thread=thread_name,
                    stack=_capture_stack(),
                )
            )

    def _record(self, finding: SanitizerFinding) -> None:
        with self._state:
            self.findings.append(finding)

    # -- reporting ---------------------------------------------------------

    def report(self) -> list[SanitizerFinding]:
        """A snapshot of the findings recorded so far."""
        with self._state:
            return list(self.findings)

    def render(self) -> str:
        """Every finding rendered for an assertion message."""
        return "\n\n".join(f.render() for f in self.report())


class _InstrumentedLock:
    """A lock wrapper reporting acquisitions/releases to its sanitizer.

    Implements the full primitive-lock protocol plus the private hooks
    :class:`threading.Condition` uses on reentrant locks, so it can
    stand in anywhere a real lock does.  The wrapper binds to the
    sanitizer that created it — locks created under a nested sanitizer
    report there, not to an outer one.
    """

    def __init__(
        self,
        sanitizer: LockSanitizer,
        real: Any,
        reentrant: bool,
        name: str = "",
    ):
        self._sanitizer = sanitizer
        self._real = real
        self._reentrant = reentrant
        if not name:
            site = traceback.extract_stack(limit=8)
            caller = next(
                (
                    f
                    for f in reversed(site)
                    if os.path.basename(f.filename)
                    not in ("sanitizer.py", "threading.py")
                ),
                None,
            )
            if caller is not None:
                name = f"{os.path.basename(caller.filename)}:{caller.lineno}"
        self._ident = sanitizer._register(self, name)

    # -- primitive lock protocol ------------------------------------------

    def acquire(self, blocking: bool = True, timeout: float = -1) -> bool:
        acquired = self._real.acquire(blocking, timeout)
        if acquired:
            self._sanitizer._note_acquired(self)
        return acquired

    def release(self) -> None:
        self._sanitizer._note_released(self)
        self._real.release()

    def locked(self) -> bool:
        return bool(self._real.locked())

    def __enter__(self) -> bool:
        return self.acquire()

    def __exit__(self, *exc_info: object) -> None:
        self.release()

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        kind = "RLock" if self._reentrant else "Lock"
        return f"<Sanitized{kind} {self._sanitizer._name(self._ident)}>"

    # -- Condition integration hooks ---------------------------------------
    # threading.Condition(wrapped_rlock) calls these during wait(); keeping
    # the sanitizer's held-stack in sync avoids phantom hold-time findings
    # spanning a wait.

    def _release_save(self) -> Any:
        self._sanitizer._note_released(self)
        if hasattr(self._real, "_release_save"):
            return self._real._release_save()
        self._real.release()
        return None

    def _acquire_restore(self, state: Any) -> None:
        if hasattr(self._real, "_acquire_restore"):
            self._real._acquire_restore(state)
        else:
            self._real.acquire()
        self._sanitizer._note_acquired(self)

    def _is_owned(self) -> bool:
        if hasattr(self._real, "_is_owned"):
            return bool(self._real._is_owned())
        # Primitive-lock fallback, mirroring threading.Condition.
        if self._real.acquire(False):
            self._real.release()
            return False
        return True


# The real factories, captured at import time so install() can restore
# them and the sanitizer can build unwrapped locks for itself.
_REAL_LOCK = threading.Lock
_REAL_RLOCK = threading.RLock

_active_lock = _thread.allocate_lock()
_active_stack: list[LockSanitizer] = []  # physlint: disable=API001 -- module singleton stack


def _reset_after_fork() -> None:
    """Disarm the sanitizer in forked children.

    A fork can land while another thread holds a sanitizer's raw state
    lock; the child would deadlock on its first tracked acquisition.
    Children get real lock factories and a fresh (empty) stack —
    sanitizing the parent is what the tests care about.
    """
    global _active_lock  # physlint: disable=API002 -- fork-reset of the module lock
    _active_lock = _thread.allocate_lock()
    for sanitizer in _active_stack:
        sanitizer._state = _thread.allocate_lock()
        sanitizer._held.clear()
    _active_stack.clear()
    threading.Lock = _REAL_LOCK  # type: ignore
    threading.RLock = _REAL_RLOCK  # type: ignore


if hasattr(os, "register_at_fork"):  # pragma: no branch - CPython >= 3.7
    os.register_at_fork(after_in_child=_reset_after_fork)


def active() -> LockSanitizer | None:
    """The innermost installed sanitizer, or ``None``."""
    with _active_lock:
        return _active_stack[-1] if _active_stack else None


def install(sanitizer: LockSanitizer | None = None) -> LockSanitizer:
    """Install a sanitizer: new ``threading.Lock``/``RLock`` are instrumented.

    Nestable — each :func:`install` pushes onto a stack and
    :func:`uninstall` pops; the factories always bind to the innermost
    sanitizer *at lock-creation time*, so a lock keeps reporting to its
    creator even after an inner sanitizer is popped.
    """
    if sanitizer is None:
        sanitizer = LockSanitizer()

    with _active_lock:
        _active_stack.append(sanitizer)
        threading.Lock = _factory_lock  # type: ignore
        threading.RLock = _factory_rlock  # type: ignore
    return sanitizer


def uninstall() -> LockSanitizer | None:
    """Pop the innermost sanitizer; restores real factories when empty.

    Returns:
        The removed sanitizer, or ``None`` when none was installed.
    """
    with _active_lock:
        if not _active_stack:
            return None
        sanitizer = _active_stack.pop()
        if not _active_stack:
            threading.Lock = _REAL_LOCK  # type: ignore
            threading.RLock = _REAL_RLOCK  # type: ignore
        return sanitizer


def _factory_lock() -> Any:
    sanitizer = active()
    if sanitizer is None:  # pragma: no cover - races with uninstall only
        return _REAL_LOCK()
    return sanitizer.lock()


def _factory_rlock() -> Any:
    sanitizer = active()
    if sanitizer is None:  # pragma: no cover - races with uninstall only
        return _REAL_RLOCK()
    return sanitizer.rlock()


@contextmanager
def sanitized(hold_threshold_s: float = 1.0) -> Iterator[LockSanitizer]:
    """Context manager: install a fresh sanitizer, uninstall on exit.

    The caller decides what to do with ``sanitizer.findings`` — the
    pytest fixtures fail the test when any exist.
    """
    sanitizer = install(LockSanitizer(hold_threshold_s=hold_threshold_s))
    try:
        yield sanitizer
    finally:
        uninstall()
