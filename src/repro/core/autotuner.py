"""Level 3 of BT-Optimizer: on-device autotuning (paper section 3.3).

The model's top candidates are close enough that small prediction errors
reorder them (the "performance tier" effect), so the final level runs the
top candidates on the actual device - here: the discrete-event pipeline
back-end on the virtual SoC - measures their steady-state throughput for
a fixed interval, and selects the measured best.  Table 4 is exactly this
process's log for AlexNet-sparse on the Pixel, where the measured-best
candidate beat the predicted-best by 1.35x.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, List, Optional, Sequence

from repro.core.optimizer import OptimizationResult, ScheduleCandidate
from repro.core.schedule import validate_schedule
from repro.errors import SchedulingError
from repro.obs.metrics import metrics
from repro.obs.tracer import tracer
from repro.runtime.simulator import (
    SimWindow,
    SimulatedPipelineExecutor,
    simulate_batch,
)
from repro.soc.platform import Platform
from repro.stage import Application

if TYPE_CHECKING:
    from repro.core.session import CampaignSession

#: Tasks streamed per candidate evaluation (stand-in for the paper's
#: fixed 10-second throughput interval; 30 matches its reported runs).
DEFAULT_EVAL_TASKS = 30


@dataclass(frozen=True)
class AutotuneEntry:
    """One candidate's predicted and measured latency."""

    rank: int
    candidate: ScheduleCandidate
    measured_latency_s: float

    @property
    def predicted_latency_s(self) -> float:
        return self.candidate.predicted_latency_s

    def speedup_over(self, reference: "AutotuneEntry") -> float:
        """Measured speedup of this entry relative to ``reference``
        (Table 4's bottom row, referenced to schedule #1)."""
        return reference.measured_latency_s / self.measured_latency_s


@dataclass
class AutotuneResult:
    """The autotuning campaign's full log."""

    entries: List[AutotuneEntry]

    @property
    def predicted_best(self) -> AutotuneEntry:
        """The entry the model ranked first (lowest predicted latency)."""
        return min(self.entries, key=lambda e: e.candidate.rank)

    @property
    def measured_best(self) -> AutotuneEntry:
        """The entry that actually ran fastest - the deployed schedule."""
        return min(self.entries, key=lambda e: e.measured_latency_s)

    @property
    def autotuning_gain(self) -> float:
        """Measured speedup of the measured-best over the predicted-best
        (the extra ~1.35x the paper reports users gain from level 3)."""
        return (
            self.predicted_best.measured_latency_s
            / self.measured_best.measured_latency_s
        )


class Autotuner:
    """Evaluate optimizer candidates on the (virtual) device.

    Args:
        application: The pipeline being tuned.
        platform: Target virtual SoC.
        eval_tasks: Tasks streamed per candidate measurement.
    """

    def __init__(
        self,
        application: Application,
        platform: Platform,
        eval_tasks: int = DEFAULT_EVAL_TASKS,
    ):
        if eval_tasks < 2:
            raise SchedulingError("eval_tasks must be >= 2")
        self.application = application
        self.platform = platform
        self.eval_tasks = eval_tasks

    def measure_batch(
        self, candidates: Sequence[ScheduleCandidate],
    ) -> List[AutotuneEntry]:
        """Measure a whole round of candidates in one batched call.

        Every candidate is validated against the application and the
        platform's schedulable PU classes before anything executes, so
        a hand-crafted or stale schedule fails loudly
        here rather than deep inside the executor.  The simulations
        then run through :func:`simulate_batch`, the DES's batch entry
        point; a candidate's measurement depends on nothing but the
        candidate (its own executor, its own measurement RNG key).
        """
        executors = []
        for candidate in candidates:
            validate_schedule(
                candidate.schedule, self.application,
                available_pus=self.platform.schedulable_classes(),
            )
            executors.append(SimulatedPipelineExecutor(
                self.application,
                candidate.schedule.chunks(),
                self.platform,
            ))
        with tracer().span("autotuner.round", "autotuner",
                           candidates=len(executors)):
            results = simulate_batch([
                SimWindow(executor, self.eval_tasks)
                for executor in executors
            ])
        entries: List[AutotuneEntry] = []
        reg = metrics()
        for candidate, executor, result in zip(candidates, executors,
                                               results):
            measured = executor.measured_latency(result)
            with tracer().span("autotuner.measure", "autotuner",
                               rank=candidate.rank,
                               predicted_s=candidate.predicted_latency_s,
                               measured_s=measured):
                pass
            if reg.enabled:
                reg.counter("autotuner.measurements")
                reg.observe("autotuner.measured_s", measured)
            entries.append(AutotuneEntry(
                rank=candidate.rank, candidate=candidate,
                measured_latency_s=measured,
            ))
        return entries

    def tune(
        self,
        optimization: "OptimizationResult | Sequence[ScheduleCandidate]",
        top: Optional[int] = None,
        session: Optional[CampaignSession] = None,
    ) -> AutotuneResult:
        """Measure the top candidates and return the campaign log.

        Args:
            optimization: An :class:`OptimizationResult` or a plain
                candidate list (already sorted by predicted latency).
            top: How many leading candidates to execute (default: all).
            session: Checkpoints the round: candidates it holds are read
                back, the rest are measured in one round and handed to
                it in rank order.
        """
        candidates = (
            optimization.candidates
            if isinstance(optimization, OptimizationResult)
            else list(optimization)
        )
        if not candidates:
            raise SchedulingError("no candidates to autotune")
        subset = candidates[:top] if top is not None else candidates
        if session is None:
            return AutotuneResult(entries=self.measure_batch(subset))
        kept = [session.measurement(candidate) for candidate in subset]
        missing = [c for c, entry in zip(subset, kept) if entry is None]
        fresh = iter(self.measure_batch(missing) if missing else ())
        return AutotuneResult(entries=[
            session.record(self.application.name, entry or next(fresh),
                           reused=entry is not None)
            for entry in kept
        ])
