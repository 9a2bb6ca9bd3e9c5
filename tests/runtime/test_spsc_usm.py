"""Tests for the SPSC queue, UsmBuffer and TaskObject."""

import threading
import time

import numpy as np
import pytest

from repro.runtime import checks as runtime_checks
from repro.runtime.checks import USE_AFTER_RELEASE
from repro.errors import PipelineError, QueueClosedError
from repro.runtime import SpscQueue, TaskObject, UsmBuffer


class TestSpscQueue:
    def test_fifo_order(self):
        q = SpscQueue(capacity=4)
        for i in range(4):
            q.push(i)
        assert [q.pop() for _ in range(4)] == [0, 1, 2, 3]

    def test_len_tracks_occupancy(self):
        q = SpscQueue(capacity=3)
        assert len(q) == 0
        q.push("a")
        q.push("b")
        assert len(q) == 2
        q.pop()
        assert len(q) == 1

    def test_push_timeout(self):
        q = SpscQueue(capacity=1)
        q.push(1)
        with pytest.raises(TimeoutError):
            q.push(2, timeout=0.05)

    def test_pop_timeout(self):
        q = SpscQueue(capacity=1)
        with pytest.raises(TimeoutError):
            q.pop(timeout=0.05)

    def test_closed_push_raises(self):
        q = SpscQueue(capacity=1)
        q.close()
        with pytest.raises(QueueClosedError):
            q.push(1)

    def test_closed_queue_drains_then_raises(self):
        q = SpscQueue(capacity=2)
        q.push("x")
        q.close()
        assert q.pop() == "x"
        with pytest.raises(QueueClosedError):
            q.pop()

    def test_capacity_validated(self):
        with pytest.raises(ValueError):
            SpscQueue(capacity=0)

    def test_threaded_producer_consumer(self):
        q = SpscQueue(capacity=8)
        n = 2000
        received = []

        def producer():
            for i in range(n):
                q.push(i)

        def consumer():
            for _ in range(n):
                received.append(q.pop())

        threads = [threading.Thread(target=producer),
                   threading.Thread(target=consumer)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=30)
        assert received == list(range(n))

    def test_blocked_consumer_wakes_on_close(self):
        q = SpscQueue(capacity=1)
        outcome = []

        def consumer():
            try:
                q.pop(timeout=5)
            except QueueClosedError:
                outcome.append("closed")

        t = threading.Thread(target=consumer)
        t.start()
        q.close()
        t.join(timeout=5)
        assert outcome == ["closed"]

    def test_blocked_producer_wakes_on_close(self):
        # The producer thread does *all* the pushing (including the
        # fill) so the queue keeps its single-producer discipline under
        # the concurrency checker; close() may come from any thread.
        q = SpscQueue(capacity=1)
        outcome = []
        filled = threading.Event()

        def producer():
            q.push("fill")
            filled.set()
            try:
                q.push("blocked", timeout=5)
            except QueueClosedError:
                outcome.append("closed")

        t = threading.Thread(target=producer)
        t.start()
        filled.wait(timeout=5)
        time.sleep(0.05)  # let the producer actually block while full
        q.close()
        t.join(timeout=5)
        assert outcome == ["closed"]

    def test_ring_wraparound_interleaved(self):
        """Head/tail must wrap cleanly when pushes and pops interleave
        at partial occupancy (many times around a small ring)."""
        q = SpscQueue(capacity=3)
        popped = []
        pushed = iter(range(100))
        q.push(next(pushed))
        q.push(next(pushed))
        for _ in range(49):
            popped.append(q.pop())
            q.push(next(pushed))
            popped.append(q.pop())
            q.push(next(pushed))
        while len(q):
            popped.append(q.pop())
        assert popped == list(range(100))

    def test_pop_timeout_is_deadline_not_per_wakeup(self):
        """A slow-but-live peer must not extend the bound: wakeups that
        find the queue still empty wait only for the remainder.  (The
        old per-``wait`` timeout restarted the clock on every notify.)"""
        q = SpscQueue(capacity=1)
        stop = threading.Event()

        def waker():  # spurious notifies, faster than the timeout
            for _ in range(100):  # bounded so a regression can't hang
                if stop.is_set():
                    break
                with q._lock:
                    q._not_empty.notify_all()
                time.sleep(0.02)

        t = threading.Thread(target=waker)
        t.start()
        start = time.monotonic()
        try:
            with pytest.raises(TimeoutError):
                q.pop(timeout=0.15)
            elapsed = time.monotonic() - start
        finally:
            stop.set()
            t.join(timeout=5)
        assert elapsed < 2.0

    def test_push_timeout_is_deadline_not_per_wakeup(self):
        q = SpscQueue(capacity=1)
        q.push("fill")
        stop = threading.Event()

        def waker():
            for _ in range(100):  # bounded so a regression can't hang
                if stop.is_set():
                    break
                with q._lock:
                    q._not_full.notify_all()
                time.sleep(0.02)

        t = threading.Thread(target=waker)
        t.start()
        start = time.monotonic()
        try:
            with pytest.raises(TimeoutError):
                q.push("blocked", timeout=0.15)
            elapsed = time.monotonic() - start
        finally:
            stop.set()
            t.join(timeout=5)
        assert elapsed < 2.0


class TestUsmBuffer:
    def test_host_and_device_share_storage(self):
        buf = UsmBuffer("b", (4,), np.float32)
        buf.host_view()[0] = 7.0
        assert buf.device_view()[0] == 7.0

    def test_adopted_array_is_shared_and_must_match(self):
        array = np.zeros(4, dtype=np.float32)
        UsmBuffer.wrap("b", array).device_view()[1] = 3.0
        assert array[1] == 3.0
        with pytest.raises(PipelineError):
            UsmBuffer("b", (5,), np.float32, data=array)

    def test_fill_and_zero(self):
        buf = UsmBuffer("b", (3,), np.float32)
        buf.fill(2.5)
        assert np.all(buf.host_view() == 2.5)
        buf.zero()
        assert np.all(buf.host_view() == 0.0)

    def test_nbytes(self):
        assert UsmBuffer("b", (4,), np.float64).nbytes == 32


class TestTaskObject:
    def test_allocate_and_index(self):
        task = TaskObject(0)
        task.allocate("codes", (8,), np.uint32)
        task["codes"][:] = 3
        assert np.all(task["codes"] == 3)

    def test_duplicate_allocation_rejected(self):
        task = TaskObject(0)
        task.allocate("x", (1,), np.int64)
        with pytest.raises(PipelineError):
            task.allocate("x", (1,), np.int64)

    def test_setitem_copies_into_existing_buffer(self):
        task = TaskObject(0)
        task.allocate("x", (3,), np.float32)
        original = task.buffer("x").host_view()
        task["x"] = np.array([1, 2, 3], dtype=np.float32)
        assert task.buffer("x").host_view() is original
        assert np.all(original == [1, 2, 3])

    def test_setitem_adopts_new_buffer(self):
        task = TaskObject(0)
        task["fresh"] = np.arange(4)
        assert "fresh" in task
        assert len(task) == 1

    def test_constants(self):
        task = TaskObject(0)
        task.set_constant("n", 128)
        assert task.constant("n") == 128
        with pytest.raises(PipelineError):
            task.constant("missing")

    def test_synchronize_checks_every_buffer_is_live(self):
        task = TaskObject(0)
        task.allocate("a", (1,), np.int64)
        task.allocate("b", (1,), np.int64)
        task.buffer("b").release()
        with runtime_checks.collecting() as log:
            task.synchronize_for("gpu")
        assert log.counts == {USE_AFTER_RELEASE: 1}
        assert log.snapshot()[0].where == "UsmBuffer 'b'"

    def test_recycle_bumps_generation(self):
        task = TaskObject(3)
        assert task.sequence == 3
        task.recycle(7)
        assert task.sequence == 7
        assert task.generation == 1

    def test_total_bytes(self):
        task = TaskObject(0)
        task.allocate("a", (4,), np.float32)
        task.allocate("b", (2,), np.float64)
        assert task.total_bytes() == 32

    def test_mapping_protocol(self):
        task = TaskObject(0)
        task.allocate("a", (1,), np.int64)
        assert list(iter(task)) == ["a"]
        del task["a"]
        assert len(task) == 0
