"""Rate-constrained deployment selection (extension).

A real edge deployment rarely wants "the fastest pipeline" - it wants
*a pipeline that keeps up with the sensor at minimum energy*.  With the
candidate set, the DES arrival process, and the energy model in place,
that selection is one function:

:func:`select_for_rate` streams each candidate at the target input rate,
discards those whose end-to-end latency diverges (the queue grows), and
returns the lowest-energy survivor.  When nothing keeps up it falls back
to the fastest candidate and says so - the caller's cue to drop the
sensor rate or the work size.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence

from repro.core.optimizer import OptimizationResult, ScheduleCandidate
from repro.errors import SchedulingError
from repro.runtime.simulator import (
    SimWindow,
    SimulatedPipelineExecutor,
    simulate_batch,
)
from repro.soc.energy import estimate_energy
from repro.soc.platform import Platform
from repro.stage import Application

#: Tasks streamed per candidate trial.
RATE_TRIAL_TASKS = 30


@dataclass(frozen=True)
class RateTrial:
    """One candidate's behaviour at the target rate."""

    candidate: ScheduleCandidate
    keeps_up: bool
    worst_latency_s: float
    energy_per_task_j: float


@dataclass
class RateConstrainedChoice:
    """Outcome of rate-constrained selection.

    Attributes:
        selected: The deployed candidate.
        meets_rate: Whether it actually sustains the target rate; when
            False, ``selected`` is the fastest available candidate and
            the deployment is over-driven.
        trials: Every candidate's trial, in rank order.
    """

    selected: ScheduleCandidate
    meets_rate: bool
    trials: List[RateTrial]

    @property
    def selected_trial(self) -> RateTrial:
        """The selected candidate's own trial record."""
        for trial in self.trials:
            if trial.candidate is self.selected:
                return trial
        raise SchedulingError("selected candidate missing from trials")


def select_for_rate(
    application: Application,
    platform: Platform,
    candidates: "OptimizationResult | Sequence[ScheduleCandidate]",
    rate_hz: float,
) -> RateConstrainedChoice:
    """Pick the lowest-energy candidate that sustains ``rate_hz``.

    Args:
        application / platform: The deployment target.
        candidates: Level-2 output (an :class:`OptimizationResult` or a
            plain candidate sequence).
        rate_hz: Task arrival rate to sustain; each trial streams
            ``RATE_TRIAL_TASKS`` tasks at it.
    """
    if rate_hz <= 0:
        raise SchedulingError("rate_hz must be positive")
    pool = (
        candidates.candidates
        if isinstance(candidates, OptimizationResult)
        else list(candidates)
    )
    if not pool:
        raise SchedulingError("no candidates to select from")

    period = 1.0 / rate_hz
    results = simulate_batch([
        SimWindow(
            SimulatedPipelineExecutor(
                application, candidate.schedule.chunks(), platform
            ),
            RATE_TRIAL_TASKS,
            arrival_period_s=period,
        )
        for candidate in pool
    ])
    trials: List[RateTrial] = []
    for candidate, result in zip(pool, results):
        energy = estimate_energy(result, platform)
        trials.append(
            RateTrial(
                candidate=candidate,
                keeps_up=result.keeps_up_with_arrivals(),
                worst_latency_s=max(result.end_to_end_latencies_s()),
                energy_per_task_j=energy.per_task_j,
            )
        )

    survivors = [trial for trial in trials if trial.keeps_up]
    if survivors:
        best = min(survivors, key=lambda t: t.energy_per_task_j)
        return RateConstrainedChoice(
            selected=best.candidate, meets_rate=True, trials=trials
        )
    # Nothing sustains the rate: fall back to the fastest (the least-bad
    # over-driven deployment) and report the miss.
    fastest = min(trials, key=lambda t: t.worst_latency_s)
    return RateConstrainedChoice(
        selected=fastest.candidate, meets_rate=False, trials=trials
    )
