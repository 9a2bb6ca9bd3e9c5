"""Failure-injection and robustness tests across module boundaries."""

import threading
import time

import numpy as np
import pytest

from repro.core import Application, Chunk, Stage
from repro.core.optimizer import BTOptimizer
from repro.core.profiler import ProfilingTable
from repro.errors import PipelineError, ProfilingError, SchedulingError
from repro.runtime import SpscQueue, ThreadedPipelineExecutor
from repro.soc import WorkProfile


def work():
    return WorkProfile(flops=1e3, bytes_moved=1e3, parallelism=4.0)


def make_app(kernels_by_stage, make_task=None):
    stages = [
        Stage(f"s{i}", work(), {"cpu": fn, "gpu": fn})
        for i, fn in enumerate(kernels_by_stage)
    ]
    return Application(
        "robust", stages,
        make_task=make_task or (lambda seed: {"x": np.zeros(4)}),
    )


class TestKernelFailures:
    def test_crash_in_middle_chunk_unwinds_whole_pipeline(self):
        def ok(task):
            task["x"] += 1

        def boom(task):
            raise RuntimeError("mid-pipeline crash")

        app = make_app([ok, boom, ok])
        executor = ThreadedPipelineExecutor(
            app,
            [Chunk(0, 1, "big"), Chunk(1, 2, "gpu"),
             Chunk(2, 3, "little")],
        )
        start = time.perf_counter()
        with pytest.raises(PipelineError) as excinfo:
            executor.run(4)
        # Fast unwinding, not a queue-timeout hang.
        assert time.perf_counter() - start < 10.0
        assert isinstance(excinfo.value.__cause__, RuntimeError)

    def test_crash_on_later_task_reports_after_earlier_successes(self):
        calls = {"count": 0}

        def flaky(task):
            calls["count"] += 1
            if calls["count"] == 3:
                raise ValueError("task 3 corrupt")

        app = make_app([flaky])
        with pytest.raises(PipelineError):
            ThreadedPipelineExecutor(app, [Chunk(0, 1, "big")]).run(5)
        assert calls["count"] == 3

    def test_no_threads_leak_after_crash(self):
        def boom(task):
            raise RuntimeError("boom")

        app = make_app([boom])
        before = threading.active_count()
        with pytest.raises(PipelineError):
            ThreadedPipelineExecutor(app, [Chunk(0, 1, "big")]).run(2)
        # Give daemon threads a beat to exit their closed queues.
        time.sleep(0.2)
        assert threading.active_count() <= before + 1


class TestQueueEdgeCases:
    def test_close_during_blocked_push_raises(self):
        # One thread owns the producer end (fill + blocked push) so the
        # queue keeps SPSC discipline under the concurrency checker.
        queue = SpscQueue(capacity=1)
        errors = []
        filled = threading.Event()

        def producer():
            queue.push("fill")
            filled.set()
            try:
                queue.push("blocked", timeout=5)
            except Exception as exc:  # noqa: BLE001 - recording type
                errors.append(type(exc).__name__)

        thread = threading.Thread(target=producer)
        thread.start()
        filled.wait(timeout=5)
        time.sleep(0.05)
        queue.close()
        thread.join(timeout=5)
        assert errors == ["QueueClosedError"]

    def test_interleaved_try_ops_consistent(self):
        # timeout=0 makes each op non-blocking: it succeeds now or
        # raises TimeoutError.
        queue = SpscQueue(capacity=2)
        queue.push(1, timeout=0)
        queue.push(2, timeout=0)
        with pytest.raises(TimeoutError):
            queue.push(3, timeout=0)
        assert queue.pop(timeout=0) == 1
        queue.push(3, timeout=0)
        assert queue.pop(timeout=0) == 2
        assert queue.pop(timeout=0) == 3
        with pytest.raises(TimeoutError):
            queue.pop(timeout=0)


class TestProfilerTableMisuse:
    def test_optimizer_rejects_stage_mismatch(self):
        app = make_app([lambda task: None])
        table = ProfilingTable(
            application="other", platform="t", mode="interference",
            entries={("x", "big"): 1.0}, stage_names=("x", "y"),
            pu_classes=("big",),
        )
        with pytest.raises(SchedulingError):
            BTOptimizer(app, table)

    def test_table_row_for_unknown_stage(self):
        table = ProfilingTable(
            application="a", platform="t", mode="isolated",
            entries={("s", "big"): 1.0}, stage_names=("s",),
            pu_classes=("big",),
        )
        with pytest.raises(ProfilingError):
            table.latency("nope", "big")


class TestDegenerateInputs:
    def test_single_stage_single_pu_pipeline(self):
        app = make_app([lambda task: None])
        result = ThreadedPipelineExecutor(app, [Chunk(0, 1, "big")]).run(1)
        assert result.n_tasks == 1

    def test_many_tasks_through_tiny_pipeline(self):
        counter = {"n": 0}

        def count(task):
            counter["n"] += 1

        app = make_app([count])
        ThreadedPipelineExecutor(app, [Chunk(0, 1, "big")]).run(50)
        assert counter["n"] == 50
