"""The runtime lock sanitizer (conlint's dynamic half).

The inversion tests here are the runtime side of the PR's acceptance
criterion: the same deliberate lock-order inversion that CON002 flags
statically (tests/lint/test_rules_concurrency.py) must be flagged by
the sanitizer when executed.  Each test runs under its own nested
``sanitized()`` context, so the deliberate findings never leak into a
``make race-check`` session sanitizer.
"""

from __future__ import annotations

import threading
import time

import pytest

from repro.lint.sanitizer import (
    LockSanitizer,
    active,
    install,
    sanitized,
    uninstall,
)


def kinds(sanitizer: LockSanitizer) -> list[str]:
    return [f.kind for f in sanitizer.report()]


class TestLockOrderInversion:
    def test_sequential_inversion_is_flagged(self):
        # No unlucky interleaving needed: taking both orders at any time
        # during the run is already a deadlock waiting to happen.
        with sanitized() as sanitizer:
            a = sanitizer.lock("a")
            b = sanitizer.lock("b")
            with a:
                with b:
                    pass
            with b:
                with a:
                    pass
        assert kinds(sanitizer) == ["lock-order-inversion"]
        finding = sanitizer.report()[0]
        assert "'a'" in finding.message and "'b'" in finding.message
        assert finding.stack and finding.other_stack

    def test_inversion_across_threads(self):
        with sanitized() as sanitizer:
            a = sanitizer.lock("a")
            b = sanitizer.lock("b")

            def forward():
                with a:
                    with b:
                        pass

            def backward():
                with b:
                    with a:
                        pass

            t1 = threading.Thread(target=forward)
            t1.start()
            t1.join()
            t2 = threading.Thread(target=backward)
            t2.start()
            t2.join()
        assert kinds(sanitizer) == ["lock-order-inversion"]

    def test_transitive_inversion(self):
        # a -> b, b -> c, then c -> a: the cycle spans three locks.
        with sanitized() as sanitizer:
            a = sanitizer.lock("a")
            b = sanitizer.lock("b")
            c = sanitizer.lock("c")
            with a, b:
                pass
            with b, c:
                pass
            with c, a:
                pass
        assert kinds(sanitizer) == ["lock-order-inversion"]

    def test_consistent_order_is_clean(self):
        with sanitized() as sanitizer:
            a = sanitizer.lock("a")
            b = sanitizer.lock("b")
            for _ in range(3):
                with a:
                    with b:
                        pass
        assert sanitizer.report() == []
        assert sanitizer.acquisitions == 6

    def test_reentrant_rlock_is_not_an_inversion(self):
        with sanitized() as sanitizer:
            r = sanitizer.rlock("r")
            with r:
                with r:
                    pass
        assert sanitizer.report() == []
        # Re-entry is counted as one extra acquisition, not an edge.
        assert sanitizer.acquisitions == 2


class TestHoldTime:
    def test_over_threshold_hold_is_flagged(self):
        with sanitized(hold_threshold_s=0.02) as sanitizer:
            lock = sanitizer.lock("slow")
            with lock:
                time.sleep(0.05)
        assert kinds(sanitizer) == ["hold-time"]
        assert "'slow'" in sanitizer.report()[0].message

    def test_fast_hold_is_clean(self):
        with sanitized(hold_threshold_s=5.0) as sanitizer:
            lock = sanitizer.lock("fast")
            with lock:
                pass
        assert sanitizer.report() == []

    def test_default_threshold_is_one_second(self):
        assert LockSanitizer().hold_threshold_s == 1.0
        with sanitized() as sanitizer:
            pass
        assert sanitizer.hold_threshold_s == 1.0
        with pytest.raises(ValueError):
            LockSanitizer(hold_threshold_s=0)

    def test_invalid_threshold_rejected(self):
        with pytest.raises(ValueError):
            LockSanitizer(hold_threshold_s=0.0)


class TestInstrumentedLockProtocol:
    def test_mutual_exclusion_still_works(self):
        with sanitized() as sanitizer:
            lock = sanitizer.lock("mx")
            assert lock.acquire()
            assert lock.locked()
            assert not lock.acquire(blocking=False)
            lock.release()
            assert not lock.locked()
        assert sanitizer.report() == []

    def test_condition_wait_notify(self):
        # Condition wraps an instrumented RLock and drives the private
        # _release_save/_acquire_restore hooks during wait().
        with sanitized(hold_threshold_s=30.0) as sanitizer:
            cond = threading.Condition()
            ready = []

            def waiter():
                with cond:
                    while not ready:
                        cond.wait(timeout=5.0)

            thread = threading.Thread(target=waiter)
            thread.start()
            time.sleep(0.02)
            with cond:
                ready.append(True)
                cond.notify_all()
            thread.join(timeout=5.0)
            assert not thread.is_alive()
        assert sanitizer.report() == []

    def test_event_roundtrip(self):
        with sanitized() as sanitizer:
            event = threading.Event()
            thread = threading.Thread(target=event.set)
            thread.start()
            assert event.wait(timeout=5.0)
            thread.join()
        assert sanitizer.report() == []
        assert sanitizer.locks_created >= 1


class TestInstallUninstall:
    def test_factories_patched_and_restored(self):
        before = threading.Lock
        sanitizer = install(LockSanitizer())
        try:
            assert active() is sanitizer
            lock = threading.Lock()
            assert type(lock).__name__ == "_InstrumentedLock"
            with lock:
                pass
        finally:
            assert uninstall() is sanitizer
        assert threading.Lock is before
        assert sanitizer.acquisitions == 1

    def test_nested_sanitizers_bind_at_creation(self):
        outer = install(LockSanitizer())
        try:
            inner = install(LockSanitizer())
            try:
                lock = threading.Lock()
                with lock:
                    pass
            finally:
                uninstall()
            # The lock was created under `inner` and keeps reporting
            # there even after the pop.
            with lock:
                pass
        finally:
            uninstall()
        assert inner.acquisitions == 2
        assert outer.acquisitions == 0

    def test_uninstall_without_install_is_noop(self):
        # The session fixture may have one installed; drain only ours.
        before = active()
        sanitizer = install(LockSanitizer())
        assert uninstall() is sanitizer
        assert active() is before


class TestFindingRendering:
    def test_render_carries_both_stacks(self):
        with sanitized() as sanitizer:
            a = sanitizer.lock("render_a")
            b = sanitizer.lock("render_b")
            with a, b:
                pass
            with b, a:
                pass
        text = sanitizer.render()
        assert "lock-order-inversion" in text
        assert "acquisition stack" in text
        assert "conflicting acquisition stack" in text
