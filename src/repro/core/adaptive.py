"""Adaptive deployment: survive a permanent PU dropout (extension).

The paper generates *static* schedules.  This module keeps them static
and adds the one run-time reaction ``python -m repro faultsim``
exercises: an :class:`AdaptivePipeline` executes the deployed schedule
in windows, and when a PU drops out it re-runs *level 3 only* -
re-measuring the cached candidates that avoid the dead PU and switching
to the measured best.  That is the cheap step the paper's architecture
makes possible: the profiling table and solver candidates remain valid
artifacts; only the final ranking is refreshed.

Re-ranking on measured latency drift is the fleet's job
(:class:`~repro.serve.rescheduler.OnlineRescheduler`).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Sequence, Set

from repro.core.autotuner import Autotuner
from repro.core.optimizer import ScheduleCandidate
from repro.core.schedule import Schedule
from repro.errors import PipelineError, PuFailureError, SchedulingError
from repro.runtime.faults import FALLBACK, FaultInjector
from repro.runtime.simulator import SimulatedPipelineExecutor
from repro.soc.platform import Platform
from repro.stage import Application


@dataclass
class WindowRecord:
    """One execution window's outcome."""

    window_index: int
    schedule: Schedule
    measured_latency_s: float
    fallback: bool = False


@dataclass
class AdaptivePipeline:
    """Windowed execution with PU-dropout fallback.

    Args:
        application: The deployed pipeline.
        platform: The execution platform.
        candidates: The optimizer's cached candidate set (level-2
            output); re-tuning re-ranks these, never re-profiles.
        window_tasks: Tasks per execution window.
    """

    application: Application
    platform: Platform
    candidates: Sequence[ScheduleCandidate]
    window_tasks: int = 20
    eval_tasks: int = 15

    _schedule: Optional[Schedule] = field(default=None, init=False)
    history: List[WindowRecord] = field(default_factory=list, init=False)
    failed_pus: Set[str] = field(default_factory=set, init=False)
    _executor: Optional[SimulatedPipelineExecutor] = field(
        default=None, init=False,
    )
    _executor_key: Optional[tuple] = field(default=None, init=False)

    def __post_init__(self) -> None:
        if not self.candidates:
            raise SchedulingError("adaptive pipeline needs candidates")
        if self.window_tasks < 2:
            raise PipelineError("window_tasks must be >= 2")
        self._retune()

    # ------------------------------------------------------------------
    @property
    def schedule(self) -> Schedule:
        """The currently deployed schedule."""
        return self._schedule

    def mark_pu_failed(self, pu_class: str) -> bool:
        """A PU dropped out permanently: degrade gracefully.

        Removes the PU from the usable set and, when the deployed
        schedule relied on it, falls back to the best cached candidate
        avoiding it (level-3 re-ranking only - no re-profiling, exactly
        the cheap recovery the candidate cache enables).

        Returns True when the deployed schedule changed.

        Raises:
            SchedulingError: No cached candidate avoids the failed PUs;
                a full re-run (profiling included) is required.
        """
        if pu_class in self.failed_pus:
            return False
        self.failed_pus.add(pu_class)
        if not self._usable_candidates():
            raise SchedulingError(
                f"no cached candidate avoids failed PU {pu_class!r}; "
                "a full re-run (profiling included) is required"
            )
        if pu_class in set(self._schedule.pu_classes_used):
            self._retune()
            return True
        return False

    # ------------------------------------------------------------------
    def _usable_candidates(self) -> List[ScheduleCandidate]:
        schedulable = (
            set(self.platform.schedulable_classes()) - self.failed_pus
        )
        return [
            c for c in self.candidates
            if set(c.schedule.pu_classes_used) <= schedulable
        ]

    def _retune(self) -> None:
        tuner = Autotuner(
            self.application, self.platform, eval_tasks=self.eval_tasks
        )
        result = tuner.tune(self._usable_candidates())
        self._schedule = result.measured_best.candidate.schedule

    # ------------------------------------------------------------------
    def run_window(
        self, fault_injector: Optional[FaultInjector] = None,
    ) -> WindowRecord:
        """Execute one window on the deployed schedule.

        With a :class:`~repro.runtime.faults.FaultInjector` attached,
        the window executes under injected faults; a mid-window PU
        dropout triggers immediate fallback (:meth:`mark_pu_failed`)
        and the window re-executes on the degraded schedule, so the
        pipeline keeps streaming.

        Returns the window's record (also appended to :attr:`history`).
        """
        dead = set(self._schedule.pu_classes_used) & self.failed_pus
        if dead:
            # mark_pu_failed already reported candidate exhaustion for
            # these PUs; executing anyway would silently dispatch onto
            # dead hardware.
            raise SchedulingError(
                f"deployed schedule still uses failed PUs "
                f"{sorted(dead)} and no cached candidate avoids them; "
                "a full re-run (profiling included) is required"
            )
        fallback = False
        while True:
            executor = self._executor_for(fault_injector)
            try:
                measured = executor.measure_per_task_latency(
                    self.window_tasks
                )
                break
            except PuFailureError as exc:
                # Each pass retires one PU class, so this terminates:
                # either a surviving schedule completes the window or
                # mark_pu_failed runs out of candidates and raises.
                self.mark_pu_failed(exc.pu_class)
                fallback = True
                if fault_injector is not None:
                    fault_injector.record(
                        FALLBACK, exc.pu_class, -1, -1,
                        detail="fell back to "
                        + self._schedule.describe(self.application),
                    )
        record = WindowRecord(
            window_index=len(self.history),
            schedule=self._schedule,
            measured_latency_s=measured,
            fallback=fallback,
        )
        self.history.append(record)
        return record

    def _executor_for(
        self, fault_injector: Optional[FaultInjector],
    ) -> SimulatedPipelineExecutor:
        """The window executor, rebuilt only when its inputs change.

        Windows on an unchanged (schedule, injector) pair reuse one
        executor, keeping its engine state and noise cache warm; noise
        is a pure function of (platform, schedule, task, stage), so a
        reused executor measures the same latencies a fresh one would.
        """
        key = (self._schedule, fault_injector)
        if self._executor is None or any(
            a is not b for a, b in zip(key, self._executor_key)
        ):
            self._executor = SimulatedPipelineExecutor(
                self.application, self._schedule.chunks(),
                self.platform, fault_injector=fault_injector,
            )
            self._executor_key = key
        return self._executor
