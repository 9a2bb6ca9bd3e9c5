"""BT-Implementer, functional back-end: real dispatcher threads.

Executes a pipeline schedule with actual Python threads and actual compute
kernels, following the dispatcher protocol of paper section 3.4:

1. pop a TaskObject pointer from the previous queue,
2. synchronize the chunk's buffers for the target PU (coherence hints),
3. dispatch each stage's compute kernel in sequence,
4. yield until the kernels complete (implicit - kernels are synchronous
   here, like OpenMP's implicit barrier),
5. push the pointer to the next queue.

TaskObjects are multi-buffered and recycled through the first queue once
the last chunk finishes with them.  This back-end validates *functional*
correctness of arbitrary schedules (any stage-to-PU mapping must produce
identical outputs); performance numbers come from the discrete-event
back-end in :mod:`repro.runtime.simulator`.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence

from repro.stage import Application, Chunk
from repro.errors import PipelineError, PuFailureError, QueueClosedError
from repro.runtime.faults import (
    FAILURE_FATAL,
    RECOVERY,
    RETRY,
    QUARANTINE,
    FaultEvent,
    FaultInjector,
    RetryPolicy,
    TaskFailure,
    classify_failure,
    clear_quarantine,
    quarantine_task,
    task_failure,
)
from repro.obs.metrics import metrics
from repro.obs.tracer import tracer
from repro.runtime.spsc import SpscQueue
from repro.runtime.task_object import TaskObject

#: Sentinel flowing through the queues to shut dispatchers down.
_POISON = object()

#: Safety timeout so a wedged pipeline fails tests instead of hanging.
_QUEUE_TIMEOUT_S = 30.0


@dataclass
class ThreadedRunResult:
    """Outcome of a threaded pipeline run.

    ``n_tasks`` is the requested task count, ``completed`` the number
    that actually drained from the final queue (they differ only when
    the run raised).  ``failures`` lists tasks quarantined under
    failure isolation; ``fault_events`` is the log of an attached
    :class:`~repro.runtime.faults.FaultInjector`, ordered by
    (task, stage) so it reads the same on every run.
    """

    n_tasks: int
    wall_seconds: float
    chunk_stage_counts: Dict[int, int] = field(default_factory=dict)
    validated: bool = False
    completed: int = 0
    failures: List[TaskFailure] = field(default_factory=list)
    fault_events: Sequence[FaultEvent] = ()

    @property
    def succeeded(self) -> int:
        """Tasks that completed without quarantine."""
        return self.completed - len(self.failures)


class _Dispatcher(threading.Thread):
    """One long-lived dispatcher thread per pipeline chunk."""

    def __init__(self, chunk_index: int, chunk: Chunk,
                 application: Application, in_queue: SpscQueue,
                 out_queue: SpscQueue,
                 queue_timeout_s: float = _QUEUE_TIMEOUT_S,
                 fault_injector: Optional[FaultInjector] = None,
                 retry_policy: Optional[RetryPolicy] = None,
                 isolate_failures: bool = False):
        super().__init__(name=f"dispatch-{chunk_index}-{chunk.pu_class}",
                         daemon=True)
        self.chunk_index = chunk_index
        self.chunk = chunk
        self.application = application
        self.in_queue = in_queue
        self.out_queue = out_queue
        self.queue_timeout_s = queue_timeout_s
        self.injector = fault_injector
        self.retry_policy = retry_policy
        self.isolate_failures = isolate_failures
        self.stages_executed = 0
        self.error: Optional[BaseException] = None

    def run(self) -> None:
        try:
            while True:
                task = self.in_queue.pop(timeout=self.queue_timeout_s)
                if task is _POISON:
                    self.out_queue.push(_POISON,
                                        timeout=self.queue_timeout_s)
                    return
                self._process(task)
                self.out_queue.push(task, timeout=self.queue_timeout_s)
        except QueueClosedError:
            # A neighbour unwound; propagate the closure along the chain
            # so every dispatcher (and the driver) wakes up.
            self.in_queue.close()
            self.out_queue.close()
        except BaseException as exc:
            # The thread boundary: nothing may escape a dispatcher
            # silently, so the executor re-raises this after the join.
            self.error = exc
            # Unwind the pipeline so neighbours don't block on us.
            self.in_queue.close()
            self.out_queue.close()

    def _process(self, task: TaskObject) -> None:
        if task_failure(task) is not None:
            return  # quarantined upstream: pass through untouched
        task_id = task.constant("task_index")
        trc = tracer()
        if trc.enabled:
            with trc.span("dispatch.task", "runtime",
                          chunk=self.chunk_index,
                          pu=self.chunk.pu_class, task=task_id):
                self._process_inner(task, task_id)
        else:
            self._process_inner(task, task_id)

    def _process_inner(self, task: TaskObject, task_id: int) -> None:
        task.synchronize_for(self.chunk.pu_class)
        for index in self.chunk.stage_indices:
            if not self._dispatch_stage(index, task, task_id):
                return  # task quarantined; skip its remainder

    def _dispatch_stage(self, index: int, task: TaskObject,
                        task_id: int) -> bool:
        """Run one stage's kernel with retry/quarantine handling.

        Returns False when the task was quarantined (failure isolation);
        raises when the failure must unwind the pipeline.  Retries
        assume restartable kernels: injected faults fire before dispatch
        touches the task, so a retried attempt starts from clean state.
        """
        stage = self.application.stages[index]
        kernel = stage.kernel_for_pu(self.chunk.pu_class)
        failures = 0
        while True:
            try:
                if self.injector is not None:
                    self.injector.before_kernel(
                        self.chunk.pu_class, index, task_id,
                        attempt=failures,
                    )
                kernel(task)
            except PuFailureError:
                raise  # permanent: retrying on a dead PU is pointless
            except Exception as exc:
                # Kernels may raise anything; every exception is
                # classified, and fatal ones (contract / configuration
                # bugs that would fail identically on retry) unwind
                # instead of burning the task's recovery budget.
                if classify_failure(exc) == FAILURE_FATAL:
                    raise
                failures += 1
                backoff = (None if self.retry_policy is None
                           else self.retry_policy.backoff_s(failures))
                if backoff is None:
                    if self.isolate_failures:
                        return self._quarantine(task, task_id, index,
                                                failures, exc)
                    raise
                self._record_retry(index, task_id, failures, exc)
                time.sleep(backoff)
                continue
            else:
                self.stages_executed += 1
                if failures and self.injector is not None:
                    self.injector.record(
                        RECOVERY, self.chunk.pu_class, index, task_id,
                        attempt=failures,
                    )
                return True

    def _record_retry(self, index: int, task_id: int, failures: int,
                      exc: BaseException) -> None:
        """Route one retried failure into the fault log (when attached)."""
        if self.injector is not None:
            self.injector.record(
                RETRY, self.chunk.pu_class, index, task_id,
                attempt=failures, detail=repr(exc),
            )
        reg = metrics()
        if reg.enabled:
            reg.counter("retry.count")
        trc = tracer()
        if trc.enabled:
            trc.instant("dispatch.retry", "runtime",
                        chunk=self.chunk_index, task=task_id,
                        stage=index, attempt=failures)

    def _quarantine(self, task: TaskObject, task_id: int, index: int,
                    attempt: int, exc: BaseException) -> bool:
        """Poison the task so it passes through downstream chunks."""
        failure = TaskFailure(
            task_id=task_id, chunk_index=self.chunk_index,
            stage_index=index, pu_class=self.chunk.pu_class,
            error=repr(exc),
        )
        quarantine_task(task, failure)
        if self.injector is not None:
            self.injector.record(
                QUARANTINE, self.chunk.pu_class, index, task_id,
                attempt=attempt, detail=repr(exc),
            )
        reg = metrics()
        if reg.enabled:
            reg.counter("quarantine.count")
        trc = tracer()
        if trc.enabled:
            trc.instant("dispatch.quarantine", "runtime",
                        chunk=self.chunk_index, task=task_id,
                        stage=index, error=repr(exc))
        return False


class ThreadedPipelineExecutor:
    """Run an application's schedule with real threads and kernels.

    Args:
        application: Must provide ``make_task`` (functional inputs).
        chunks: The schedule's chunk decomposition (contiguous cover of
            all stages, in order).  The multi-buffering depth is
            ``len(chunks) + 1`` task objects, so every chunk can be busy
            while one task is in flight between the ends.
        fault_injector: Optional fault-injection layer wrapped around
            every kernel dispatch (:mod:`repro.runtime.faults`).
        retry_policy: Retry transient kernel failures with exponential
            backoff before giving up on a task.
        isolate_failures: Quarantine a task whose stage exhausts its
            recovery budget (reported in the result's ``failures``)
            instead of unwinding the whole pipeline.
        queue_timeout_s: Per-operation queue timeout; a wedged pipeline
            fails with ``TimeoutError`` instead of hanging.
    """

    def __init__(
        self,
        application: Application,
        chunks: Sequence[Chunk],
        fault_injector: Optional[FaultInjector] = None,
        retry_policy: Optional[RetryPolicy] = None,
        isolate_failures: bool = False,
        queue_timeout_s: float = _QUEUE_TIMEOUT_S,
    ):
        _check_chunk_cover(application, chunks)
        if application.make_task is None:
            raise PipelineError(
                f"{application.name!r} has no task factory; the threaded "
                "back-end needs real inputs"
            )
        self.application = application
        self.chunks = list(chunks)
        self.depth = len(self.chunks) + 1
        self.fault_injector = fault_injector
        self.retry_policy = retry_policy
        self.isolate_failures = isolate_failures
        if queue_timeout_s <= 0:
            raise PipelineError("queue_timeout_s must be > 0")
        self.queue_timeout_s = queue_timeout_s

    def run(
        self,
        n_tasks: int,
        on_complete: Optional[Callable[[TaskObject, int], None]] = None,
        validate: bool = False,
    ) -> ThreadedRunResult:
        """Stream ``n_tasks`` inputs through the pipeline.

        Args:
            n_tasks: Number of tasks to process.
            on_complete: Called with (task_object, task_index) after the
                final chunk finishes each task, before recycling.
            validate: Run the application's ``validate_task`` on every
                completed task.
        """
        if n_tasks < 1:
            raise PipelineError("n_tasks must be >= 1")
        queues = [
            SpscQueue(capacity=self.depth + 1, name=f"pipe-q{i}")
            for i in range(len(self.chunks) + 1)
        ]
        dispatchers = [
            _Dispatcher(
                chunk_index=i,
                chunk=chunk,
                application=self.application,
                in_queue=queues[i],
                out_queue=queues[i + 1],
                queue_timeout_s=self.queue_timeout_s,
                fault_injector=self.fault_injector,
                retry_policy=self.retry_policy,
                isolate_failures=self.isolate_failures,
            )
            for i, chunk in enumerate(self.chunks)
        ]
        start = time.perf_counter()
        for dispatcher in dispatchers:
            dispatcher.start()

        issued = 0
        completed = 0
        failures: List[TaskFailure] = []
        try:
            # Prime the pipeline with the multi-buffered TaskObjects.
            for slot in range(min(self.depth, n_tasks)):
                queues[0].push(self._load_task(TaskObject(slot), issued),
                               timeout=self.queue_timeout_s)
                issued += 1
            # Drain + recycle until all tasks complete.
            while completed < n_tasks:
                try:
                    task = queues[-1].pop(timeout=self.queue_timeout_s)
                except QueueClosedError:
                    break  # a dispatcher crashed and unwound the queues
                if task is _POISON:  # pragma: no cover - defensive
                    raise PipelineError("pipeline shut down early")
                failure = task_failure(task)
                if failure is not None:
                    failures.append(failure)
                else:
                    self._finish_task(task, completed, on_complete,
                                      validate)
                completed += 1
                if issued < n_tasks:
                    task.recycle(issued)
                    try:
                        queues[0].push(self._load_task(task, issued),
                                       timeout=self.queue_timeout_s)
                    except QueueClosedError:
                        break  # pipeline unwound mid-recycle
                    issued += 1
                else:
                    # Retired for good: any later access is a lifetime
                    # bug the concurrency checker will flag.
                    task.release()
            if completed == n_tasks:
                try:
                    queues[0].push(_POISON, timeout=self.queue_timeout_s)
                except QueueClosedError:  # pragma: no cover - late crash
                    pass
        finally:
            # Close every queue *before* joining: a dispatcher blocked on
            # an upstream pop must wake even when the failure happened
            # downstream of it.  Closed queues still drain queued items
            # (including the poison pill), so the clean-shutdown path is
            # unaffected.
            for queue in queues:
                queue.close()
        for dispatcher in dispatchers:
            dispatcher.join(timeout=self.queue_timeout_s)
        for dispatcher in dispatchers:
            if dispatcher.error is not None:
                raise PipelineError(
                    f"dispatcher {dispatcher.name} failed after "
                    f"{completed} of {n_tasks} tasks"
                ) from dispatcher.error
        if completed < n_tasks:
            # The queues unwound without any dispatcher recording an
            # error; returning a result here would silently claim the
            # missing tasks completed.
            raise PipelineError(
                f"pipeline shut down early: {completed} of {n_tasks} "
                "tasks completed and no dispatcher error was recorded"
            )
        wall = time.perf_counter() - start
        trc = tracer()
        if trc.enabled:
            with trc.span("pipeline.run", "runtime", n_tasks=n_tasks,
                          chunks=len(self.chunks), completed=completed):
                pass
            reg = metrics()
            reg.counter("pipeline.runs")
            if failures:
                reg.counter("pipeline.quarantined_tasks", len(failures))
        return ThreadedRunResult(
            n_tasks=n_tasks,
            wall_seconds=wall,
            chunk_stage_counts={
                d.chunk_index: d.stages_executed for d in dispatchers
            },
            validated=validate,
            completed=completed,
            failures=failures,
            # Dispatchers append to the shared log in wall-clock order.
            # One (task, stage) is dispatched by one thread only, so a
            # stable sort on it fixes the order across runs and keeps
            # each dispatch's fault -> retry -> recovery in sequence.
            fault_events=(tuple(sorted(
                self.fault_injector.events,
                key=lambda event: (event.task_id, event.stage_index),
            )) if self.fault_injector is not None else ()),
        )

    # ------------------------------------------------------------------
    def _load_task(self, task: TaskObject, index: int) -> TaskObject:
        payload = self.application.make_task(index)
        for name, array in payload.items():
            task[name] = array
        task.set_constant("task_index", index)
        clear_quarantine(task)  # recycled objects must start healthy
        return task

    def _finish_task(self, task: TaskObject, index: int,
                     on_complete: Optional[Callable[[TaskObject, int], None]],
                     validate: bool) -> None:
        if validate and self.application.validate_task is not None:
            self.application.validate_task(task)
        if on_complete is not None:
            on_complete(task, index)


def _check_chunk_cover(application: Application,
                       chunks: Sequence[Chunk]) -> None:
    """Chunks must tile [0, num_stages) in order with distinct PUs."""
    if not chunks:
        raise PipelineError("a pipeline needs at least one chunk")
    expected = 0
    seen_pus: List[str] = []
    for chunk in chunks:
        if chunk.start != expected:
            raise PipelineError(
                f"chunk gap/overlap at stage {expected} (chunk starts at "
                f"{chunk.start})"
            )
        expected = chunk.stop
        if chunk.pu_class in seen_pus:
            raise PipelineError(
                f"PU class {chunk.pu_class!r} used by two chunks - stages "
                "on one PU must form a single chunk (constraint C2)"
            )
        seen_pus.append(chunk.pu_class)
    if expected != application.num_stages:
        raise PipelineError(
            f"chunks cover {expected} stages, application has "
            f"{application.num_stages}"
        )
