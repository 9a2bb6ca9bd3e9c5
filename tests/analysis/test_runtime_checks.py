"""Tests for the dynamic concurrency checker (``REPRO_CHECK=1``)."""

import threading

import numpy as np
import pytest

from repro.runtime import checks as runtime_checks, lock_order
from repro.runtime.checks import (
    BUFFER_ALIAS,
    LOCK_ORDER,
    SPSC_CONSUMER,
    SPSC_PRODUCER,
    USE_AFTER_RELEASE,
)
from repro.runtime import SpscQueue, TaskObject, UsmBuffer


def run_in_thread(fn):
    worker = threading.Thread(target=fn, name="intruder")
    worker.start()
    worker.join(timeout=10)
    assert not worker.is_alive()


class TestSpscDiscipline:
    def test_second_producer_detected(self):
        with runtime_checks.collecting() as log:
            queue = SpscQueue(capacity=4, name="t-two-producers")
            queue.push("from-main")
            run_in_thread(lambda: queue.push("from-intruder"))
        violations = log.snapshot()
        assert log.counts == {SPSC_PRODUCER: 1}
        assert violations[0].where == "t-two-producers"
        assert violations[0].thread == "intruder"

    def test_second_consumer_detected(self):
        with runtime_checks.collecting() as log:
            queue = SpscQueue(capacity=4, name="t-two-consumers")
            queue.push("a")
            queue.push("b")
            assert queue.pop() == "a"
            run_in_thread(queue.pop)
        assert log.counts == {SPSC_CONSUMER: 1}

    def test_same_thread_both_ends_is_fine(self):
        with runtime_checks.collecting() as log:
            queue = SpscQueue(capacity=2)
            queue.push(1)
            assert queue.pop() == 1
        assert len(log) == 0

    def test_close_is_exempt_from_binding(self):
        with runtime_checks.collecting() as log:
            queue = SpscQueue(capacity=2)
            run_in_thread(lambda: queue.push("x"))
            queue.close()  # any thread may unwind the pipeline
        assert len(log) == 0


class TestLifetime:
    def test_use_after_release_on_buffer(self):
        with runtime_checks.collecting() as log:
            buffer = UsmBuffer("loose", (2,), np.float32)
            buffer.release()
            assert buffer.released
            buffer.host_view()
        violations = log.snapshot()
        assert log.counts == {USE_AFTER_RELEASE: 1}
        assert violations[0].where == "UsmBuffer 'loose'"

    def test_use_after_release_on_task_object(self):
        with runtime_checks.collecting() as log:
            task = TaskObject(7)
            task.allocate("scratch", (4,), np.float32)
            task.release()
            task.buffer("scratch")
            task.recycle(8)
        assert log.counts == {USE_AFTER_RELEASE: 2}
        assert all(v.where == "TaskObject 7" for v in log.snapshot())

    def test_release_is_idempotent_and_quiet(self):
        with runtime_checks.collecting() as log:
            task = TaskObject(0)
            task.allocate("a", (1,), np.int64)
            task.release()
            task.release()
        assert len(log) == 0

    def test_buffer_alias_detected(self):
        with runtime_checks.collecting() as log:
            storage = np.zeros(8, dtype=np.float32)
            task = TaskObject(0)
            task.wrap("left", storage)
            task.wrap("right", storage[2:6])
        assert log.counts == {BUFFER_ALIAS: 1}

    def test_disjoint_wraps_are_fine(self):
        with runtime_checks.collecting() as log:
            storage = np.zeros(8, dtype=np.float32)
            task = TaskObject(0)
            task.wrap("left", storage[:4])
            task.wrap("right", storage[4:])
        assert len(log) == 0

    def test_wrap_is_zero_copy(self):
        storage = np.arange(4, dtype=np.float32)
        task = TaskObject(0)
        task.wrap("payload", storage)
        task["payload"][0] = 9.0
        assert storage[0] == 9.0


class TestLockOrder:
    def test_inverted_acquisition_reports_cycle(self):
        with runtime_checks.collecting() as log:
            lock_a = lock_order.TrackedLock("t-cycle-a")
            lock_b = lock_order.TrackedLock("t-cycle-b")
            with lock_a:
                with lock_b:
                    pass

            def inverted():
                with lock_b:
                    with lock_a:
                        pass

            run_in_thread(inverted)
        assert log.counts == {LOCK_ORDER: 1}

    def test_consistent_order_is_fine(self):
        with runtime_checks.collecting() as log:
            lock_a = lock_order.TrackedLock("t-order-a")
            lock_b = lock_order.TrackedLock("t-order-b")
            with lock_a:
                with lock_b:
                    pass

            def same_order():
                with lock_a:
                    with lock_b:
                        pass

            run_in_thread(same_order)
        assert len(log) == 0

    def test_checked_lock_binds_at_construction(self):
        was_enabled = runtime_checks.checks_enabled()
        try:
            runtime_checks.enable_checks()
            assert isinstance(lock_order.checked_lock("t-bind"),
                              lock_order.TrackedLock)
            runtime_checks.disable_checks()
            assert isinstance(lock_order.checked_lock("t-unbound"),
                              type(threading.Lock()))
        finally:
            if was_enabled:
                runtime_checks.enable_checks()
            else:
                runtime_checks.disable_checks()


class TestLogPlumbing:
    def test_disabled_recording_is_noop(self):
        was_enabled = runtime_checks.checks_enabled()
        runtime_checks.disable_checks()
        before = len(runtime_checks.global_log())
        try:
            runtime_checks.record_violation("k", "w", "d")
            assert len(runtime_checks.global_log()) == before
        finally:
            if was_enabled:
                runtime_checks.enable_checks()

    def test_collecting_isolates_the_global_log(self):
        before = len(runtime_checks.global_log())
        with runtime_checks.collecting() as log:
            runtime_checks.record_violation(SPSC_PRODUCER, "q", "seeded")
        assert len(log) == 1
        assert len(runtime_checks.global_log()) == before

    def test_log_since_and_to_dict(self):
        log = runtime_checks.ViolationLog()
        log.record(runtime_checks.Violation("k1", "w", "d", "t"))
        mark = len(log)
        log.record(runtime_checks.Violation("k2", "w", "d", "t"))
        assert [v.kind for v in log.since(mark)] == ["k2"]
        data = log.to_dict()
        assert data["total"] == 2
        assert data["counts"] == {"k1": 1, "k2": 1}
