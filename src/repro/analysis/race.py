"""``python -m repro race``: drive the dynamic concurrency checker.

Two phases:

* **clean** - run a real threaded pipeline (dispatcher threads, SPSC
  queues, the fault-log lock) with the checker force-enabled.  A
  healthy runtime must report *zero* violations.
* **selftest** (``--selftest``) - deliberately break each invariant
  (a second producer on an SPSC queue, a use-after-release read on a
  released buffer, two aliasing buffers in one TaskObject, a lock-order
  inversion) and verify the checker detects every one.  This proves the
  instrumentation is live, not silently disabled.

The exit code is non-zero when the clean phase reports anything or the
selftest misses a seeded violation; the structured JSON report mirrors
the lint report shape so CI consumes both identically.
"""

from __future__ import annotations

import itertools
import threading
from typing import Any, Dict, List, Tuple

import numpy as np

from repro.analysis.report import render_race_json
from repro.errors import QueueClosedError
from repro.runtime import checks, lock_order
from repro.runtime.checks import (
    BUFFER_ALIAS,
    LOCK_ORDER,
    SPSC_PRODUCER,
    USE_AFTER_RELEASE,
    ViolationLog,
)
from repro.runtime.faults import FaultInjector, FaultPlan
from repro.runtime.pipeline import ThreadedPipelineExecutor
from repro.runtime.spsc import SpscQueue
from repro.runtime.task_object import TaskObject
from repro.runtime.usm import UsmBuffer
from repro.soc.workprofile import WorkProfile
from repro.stage import Application, Chunk, Stage


def build_check_app(n_stages: int = 4) -> Application:
    """A tiny self-validating counting pipeline for checker scenarios.

    Each stage bumps a per-task counter; the trace proves ordering and
    coverage without profiling, so the race runner stays fast and fully
    deterministic.
    """
    def stage_kernel(index: int):
        def kernel(task) -> None:
            trace = task["trace"]
            trace[index] = trace[index - 1] + 1 if index > 0 else 1
        return kernel

    stages = [
        Stage(f"s{i}",
              WorkProfile(flops=1e3, bytes_moved=1e3, parallelism=4.0),
              {"cpu": stage_kernel(i), "gpu": stage_kernel(i)})
        for i in range(n_stages)
    ]

    def make_task(seed: int) -> Dict[str, np.ndarray]:
        return {"trace": np.zeros(n_stages, dtype=np.int64)}

    def validate(task) -> None:
        expected = np.arange(1, n_stages + 1)
        if not np.array_equal(np.asarray(task["trace"]), expected):
            raise ValueError(f"bad trace {task['trace']}")

    return Application("race-check", stages, make_task=make_task,
                       validate_task=validate)


def run_clean_phase(tasks: int = 8,
                    stages: int = 4) -> Tuple[ViolationLog, Dict]:
    """Run the instrumented pipeline; a healthy runtime reports nothing.

    The schedule splits the stages across two PU classes so dispatcher
    threads, inter-chunk queues and the fault-log lock are all genuinely
    exercised concurrently.
    """
    application = build_check_app(stages)
    split = max(1, stages // 2)
    chunks = [Chunk(0, split, "big"), Chunk(split, stages, "gpu")]
    with checks.collecting() as log:
        executor = ThreadedPipelineExecutor(
            application, chunks,
            fault_injector=FaultInjector(FaultPlan()),
        )
        result = executor.run(tasks, validate=True)
    summary = {"tasks": result.n_tasks, "completed": result.completed,
               "chunks": len(chunks)}
    return log, summary


def run_selftest_phase() -> Tuple[ViolationLog, List[str]]:
    """Seed one violation of each kind; return (log, kinds NOT seen)."""
    with checks.collecting() as log:
        _seed_second_producer()
        _seed_use_after_release()
        _seed_buffer_alias()
        _seed_lock_order_inversion()
    expected = {SPSC_PRODUCER, USE_AFTER_RELEASE, BUFFER_ALIAS,
                LOCK_ORDER}
    missing = sorted(expected - set(log.counts))
    return log, missing


def _seed_second_producer() -> None:
    """Push to one SPSC queue from two different threads."""
    queue = SpscQueue(capacity=4, name="selftest-q")
    queue.push("from-main")

    def second_producer() -> None:
        try:
            queue.push("from-intruder")
        except QueueClosedError:  # pragma: no cover - defensive
            pass

    # bt-lint: disable=UNSUPERVISED-THREAD -- seeded, joined below
    intruder = threading.Thread(
        target=second_producer, name="intruder",
    )
    intruder.start()
    intruder.join(timeout=5)


def _seed_use_after_release() -> None:
    """Read a buffer after its TaskObject retired it."""
    task = TaskObject(0)
    task.allocate("scratch", (4,), np.float32)
    task.release()
    task.buffer("scratch")  # use-after-release on the task...
    buffer = UsmBuffer("loose", (2,), np.float32)
    buffer.release()
    buffer.host_view()  # ...and directly on a released buffer


def _seed_buffer_alias() -> None:
    """Wrap the same storage as two buffers of one TaskObject."""
    storage = np.zeros(8, dtype=np.float32)
    task = TaskObject(0)
    task.wrap("left", storage)
    task.wrap("right", storage[2:6])  # overlapping view: aliasing


#: Fresh lock names per seeding so repeated selftests in one process
#: re-trigger the (per lock pair, deduplicated) cycle report.
_SELFTEST_LOCKS = itertools.count()


def _seed_lock_order_inversion() -> None:
    """Acquire two tracked locks in opposite orders on two threads."""
    generation = next(_SELFTEST_LOCKS)
    lock_a = lock_order.TrackedLock(f"selftest-a{generation}")
    lock_b = lock_order.TrackedLock(f"selftest-b{generation}")
    with lock_a:
        with lock_b:
            pass

    def inverted() -> None:
        with lock_b:
            with lock_a:
                pass

    # bt-lint: disable=UNSUPERVISED-THREAD -- seeded, joined below
    worker = threading.Thread(
        target=inverted, name="inverter",
    )
    worker.start()
    worker.join(timeout=5)


def run_race(tasks: int = 8, stages: int = 4,
             selftest: bool = False) -> Tuple[Dict[str, Any], int]:
    """Full race-checker run; returns (structured report, exit code)."""
    phases: Dict[str, ViolationLog] = {}
    extra: Dict[str, Any] = {}
    clean_log, summary = run_clean_phase(tasks=tasks, stages=stages)
    phases["clean"] = clean_log
    extra["clean_run"] = summary
    exit_code = 0
    if len(clean_log):
        exit_code = 1
    if selftest:
        selftest_log, missing = run_selftest_phase()
        phases["selftest"] = selftest_log
        extra["selftest_ok"] = not missing
        extra["selftest_missing"] = missing
        if missing:
            exit_code = 1
    extra["verdict"] = "ok" if exit_code == 0 else "violations"
    return render_race_json(phases, extra), exit_code
