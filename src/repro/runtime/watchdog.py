"""Watchdog supervision for dispatcher threads (extension).

The threaded back-end's queue timeouts catch a pipeline whose *queues*
wedge, but a dispatcher stuck inside a kernel dispatch (driver hang,
runaway kernel, an injected stall) holds its queue slots and blocks the
whole pipeline until the coarse queue timeout finally trips - and then
the run aborts rather than recovers.  This module closes that gap:

* every dispatcher carries a :class:`Heartbeat` it beats around each
  unit of work (task pickup, stage dispatch, idle);
* a :class:`Watchdog` supervisor thread scans the heartbeats and
  detects two conditions per (chunk, task):

  - **deadline overrun** - the chunk has been busy on one task longer
    than ``chunk_deadline_s`` (logged, observability only);
  - **stall** - busy longer than ``stall_timeout_s``: the watchdog
    records the stall and *cancels* the dispatch via the heartbeat's
    cancel event.

Cancellation is cooperative: the dispatcher's cancellable sleep (used
for injected slowdowns and retry backoff) and any kernel that polls the
event observe it and raise :class:`~repro.errors.StallError`, which the
dispatcher routes into the existing recovery machinery - quarantine
under failure isolation (the run completes, the stall is reported in
the :class:`~repro.runtime.faults.FaultReport`), pipeline unwind
otherwise.  Stalls are never retried: a wedged kernel would only wedge
again.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass
from typing import List, Optional, Set, Tuple

from repro.analysis.lock_order import checked_lock
from repro.errors import PipelineError, StallError
from repro.obs.recorder import recorder
from repro.runtime.faults import (
    DEADLINE_OVERRUN,
    STALL,
    FaultEvent,
    FaultInjector,
)


@dataclass
class WatchdogConfig:
    """Supervision thresholds for one pipeline run.

    Attributes:
        stall_timeout_s: Busy time on one task after which a chunk is
            declared stalled and its dispatch cancelled.
        chunk_deadline_s: Optional softer per-chunk, per-task deadline;
            overruns are logged but not cancelled.  Must not exceed
            ``stall_timeout_s``.
        poll_interval_s: Supervisor scan period (default: a quarter of
            the tightest threshold, clamped to [1 ms, 100 ms]).
    """

    stall_timeout_s: float
    chunk_deadline_s: Optional[float] = None
    poll_interval_s: Optional[float] = None

    def __post_init__(self) -> None:
        if self.stall_timeout_s <= 0:
            raise PipelineError("stall_timeout_s must be > 0")
        if self.chunk_deadline_s is not None:
            if self.chunk_deadline_s <= 0:
                raise PipelineError("chunk_deadline_s must be > 0")
            if self.chunk_deadline_s > self.stall_timeout_s:
                raise PipelineError(
                    "chunk_deadline_s must not exceed stall_timeout_s "
                    "(the stall cancellation would fire first)"
                )
        if self.poll_interval_s is None:
            tightest = self.stall_timeout_s
            if self.chunk_deadline_s is not None:
                tightest = min(tightest, self.chunk_deadline_s)
            self.poll_interval_s = min(max(tightest / 4.0, 0.001), 0.1)
        elif self.poll_interval_s <= 0:
            raise PipelineError("poll_interval_s must be > 0")


class Heartbeat:
    """One dispatcher's liveness record, written by the dispatcher and
    read by the watchdog (all accesses under a single lock)."""

    def __init__(self, chunk_index: int, pu_class: str):
        self.chunk_index = chunk_index
        self.pu_class = pu_class
        #: Set by the watchdog to cancel the in-flight dispatch;
        #: observed by cancellable sleeps and cooperative kernels.
        self.cancel = threading.Event()
        self._lock = checked_lock(f"heartbeat-{chunk_index}.lock")
        self._busy_since: Optional[float] = None
        self._task_id = -1
        self._stage_index = -1
        self._beats = 0

    # -- dispatcher side ----------------------------------------------
    def start_task(self, task_id: int) -> None:
        """The chunk picked up a task; the per-task clock starts."""
        with self._lock:
            # A stale cancellation aimed at a previous task must not
            # poison this one.
            self.cancel.clear()
            self._busy_since = time.monotonic()
            self._task_id = task_id
            self._stage_index = -1
            self._beats += 1

    @property
    def beats(self) -> int:
        """Monotonic count of :meth:`start_task` beats.

        The wall-clock fields above serve the stall scanner; this
        logical counter serves tick-driven health checks (the fleet's
        :class:`~repro.fleet.health.HealthMonitor` compares beat counts
        across fleet ticks, so a shard whose loop stops beating - a
        gray failure - is detected without any wall-clock dependence).
        """
        with self._lock:
            return self._beats

    def start_stage(self, stage_index: int) -> None:
        """About to dispatch one stage of the current task."""
        with self._lock:
            self._stage_index = stage_index

    def idle(self) -> None:
        """The chunk finished its task and is waiting on its queue."""
        with self._lock:
            self._busy_since = None
            self._task_id = -1
            self._stage_index = -1

    def sleep(self, duration: float) -> None:
        """A cancellable stand-in for ``time.sleep``.

        Raises:
            StallError: The watchdog cancelled this dispatch.
        """
        if self.cancel.wait(duration):
            raise StallError(
                f"chunk {self.chunk_index} ({self.pu_class}) cancelled "
                "by the watchdog while sleeping",
                flight_tail=recorder().tail(),
            )

    def check_cancelled(self) -> None:
        """Cooperative cancellation point for long-running kernels."""
        if self.cancel.is_set():
            raise StallError(
                f"chunk {self.chunk_index} ({self.pu_class}) cancelled "
                "by the watchdog",
                flight_tail=recorder().tail(),
            )

    # -- watchdog side -------------------------------------------------
    def snapshot(self) -> Tuple[Optional[float], int, int]:
        """(busy_since, task_id, stage_index) atomically."""
        with self._lock:
            return self._busy_since, self._task_id, self._stage_index

    def cancel_if(self, task_id: int) -> bool:
        """Cancel the in-flight dispatch if it is still ``task_id``.

        The task check closes the race where the dispatch completes
        between the watchdog's snapshot and its cancellation - a
        finished task must not get the next one cancelled.
        """
        with self._lock:
            if self._busy_since is None or self._task_id != task_id:
                return False
            self.cancel.set()
            return True


class Watchdog:
    """Supervisor thread scanning dispatcher heartbeats.

    Args:
        heartbeats: One per dispatcher, in chunk order.
        config: Detection thresholds.
        injector: Optional fault log to mirror events into (so stalls
            land in the same :class:`FaultReport` as injected faults).
    """

    def __init__(self, heartbeats: List[Heartbeat],
                 config: WatchdogConfig,
                 injector: Optional[FaultInjector] = None):
        self.heartbeats = list(heartbeats)
        self.config = config
        self.injector = injector
        self.events: List[FaultEvent] = []
        self._lock = checked_lock("watchdog.events-lock")
        self._stop = threading.Event()
        self._overruns: Set[Tuple[int, int]] = set()
        self._stalls: Set[Tuple[int, int]] = set()
        self._thread = threading.Thread(
            target=self._scan_loop, name="watchdog", daemon=True
        )

    # ------------------------------------------------------------------
    def start(self) -> None:
        """Start the supervisor thread."""
        self._thread.start()

    def stop(self) -> None:
        """Stop the supervisor and wait for its thread to exit."""
        self._stop.set()
        self._thread.join()

    @property
    def stall_count(self) -> int:
        """Distinct (chunk, task) stalls detected so far."""
        with self._lock:
            return len(self._stalls)

    def _record(self, kind: str, heartbeat: Heartbeat, task_id: int,
                stage_index: int, detail: str) -> None:
        event = FaultEvent(
            kind=kind, pu_class=heartbeat.pu_class,
            stage_index=stage_index, task_id=task_id, detail=detail,
        )
        with self._lock:
            self.events.append(event)
        if self.injector is not None:
            # The injector's log feeds the flight recorder itself.
            self.injector.record(kind, heartbeat.pu_class, stage_index,
                                 task_id, detail=detail)
        else:
            rec = recorder()
            if rec.enabled:
                rec.record(kind, pu_class=heartbeat.pu_class,
                           stage_index=stage_index, task_id=task_id,
                           detail=detail)

    # ------------------------------------------------------------------
    def _scan_loop(self) -> None:
        while not self._stop.wait(self.config.poll_interval_s):
            self._scan(time.monotonic())

    def _scan(self, now: float) -> None:
        """One pass over every heartbeat (separated out for tests)."""
        for heartbeat in self.heartbeats:
            busy_since, task_id, stage_index = heartbeat.snapshot()
            if busy_since is None:
                continue
            elapsed = now - busy_since
            key = (heartbeat.chunk_index, task_id)
            deadline = self.config.chunk_deadline_s
            if (deadline is not None and elapsed > deadline
                    and key not in self._overruns):
                self._overruns.add(key)
                self._record(
                    DEADLINE_OVERRUN, heartbeat, task_id, stage_index,
                    detail=f"busy {elapsed:.3f}s > deadline "
                           f"{deadline:g}s",
                )
            if (elapsed > self.config.stall_timeout_s
                    and key not in self._stalls
                    and heartbeat.cancel_if(task_id)):
                self._stalls.add(key)
                self._record(
                    STALL, heartbeat, task_id, stage_index,
                    detail=f"busy {elapsed:.3f}s > stall timeout "
                           f"{self.config.stall_timeout_s:g}s; "
                           "cancelling dispatch",
                )
