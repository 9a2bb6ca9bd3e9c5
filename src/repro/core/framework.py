"""The BetterTogether end-to-end driver (paper Fig. 2, steps 3-5).

Wires the three components into the fully automated flow:

1. **BT-Profiler** collects the interference-aware profiling table.
2. **BT-Optimizer** solves for K diverse low-gapness, low-latency
   candidates.
3. **Autotuning** executes the top candidates on the device and selects
   the measured best.

``BetterTogether.run()`` returns a :class:`DeploymentPlan` holding the
selected schedule, the full candidate log, and enough provenance to
regenerate every evaluation artifact.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, List, Optional

from repro.core.adaptive import AdaptivePipeline
from repro.core.autotuner import Autotuner, AutotuneResult
from repro.core.optimizer import (
    DEFAULT_GAP_SLACK,
    DEFAULT_K,
    BTOptimizer,
    OptimizationResult,
    ScheduleCandidate,
)
from repro.core.profiler import INTERFERENCE, BTProfiler, ProfilingTable
from repro.core.schedule import Schedule, validate_schedule
from repro.runtime.simulator import (
    SimulatedPipelineExecutor,
    SimulatedRunResult,
)
from repro.soc.platform import Platform
from repro.stage import Application

if TYPE_CHECKING:
    from repro.core.session import CampaignSession


@dataclass
class DeploymentPlan:
    """Everything BetterTogether produced for one (app, platform) pair."""

    application: Application
    platform: Platform
    table: ProfilingTable
    optimization: OptimizationResult
    autotune: AutotuneResult

    @property
    def schedule(self) -> Schedule:
        """The deployed schedule: autotuning's measured best."""
        return self.autotune.measured_best.candidate.schedule

    @property
    def predicted_latency_s(self) -> float:
        return self.autotune.measured_best.predicted_latency_s

    @property
    def measured_latency_s(self) -> float:
        return self.autotune.measured_best.measured_latency_s

    def execute(self, n_tasks: int = 30) -> SimulatedRunResult:
        """Deploy: stream ``n_tasks`` tasks through the selected
        pipeline."""
        validate_schedule(
            self.schedule, self.application,
            available_pus=self.platform.schedulable_classes(),
        )
        executor = SimulatedPipelineExecutor(
            self.application, self.schedule.chunks(), self.platform,
        )
        return executor.run(n_tasks)

    def summary(self) -> str:
        """Human-readable multi-line plan description."""
        lines = [
            f"BetterTogether plan: {self.application.name} on "
            f"{self.platform.display_name}",
            f"  schedule: {self.schedule.describe(self.application)}",
            f"  predicted {self.predicted_latency_s * 1e3:.3f} ms, "
            f"measured {self.measured_latency_s * 1e3:.3f} ms per task",
            f"  candidates evaluated: {len(self.autotune.entries)} "
            f"(of {len(self.optimization.candidates)} generated)",
            f"  autotuning gain over predicted-best: "
            f"{self.autotune.autotuning_gain:.2f}x",
        ]
        return "\n".join(lines)


class BetterTogether:
    """The flexible scheduling framework, end to end.

    Args:
        platform: Target system specification (Fig. 2 input 2).
        repetitions: Profiling repetitions per table entry.
        k: Optimizer candidate count (level 2).
        gap_slack: Utilization-threshold slack (level 1 filter).
        autotune_top: How many candidates level 3 actually executes
            (default: all K, like the paper's 20-candidate campaign).
        eval_tasks: Tasks streamed per autotuning measurement.
    """

    def __init__(
        self,
        platform: Platform,
        repetitions: int = 30,
        k: int = DEFAULT_K,
        gap_slack: float = DEFAULT_GAP_SLACK,
        autotune_top: Optional[int] = None,
        eval_tasks: int = 30,
    ):
        self.platform = platform
        self.profiler = BTProfiler(platform, repetitions=repetitions)
        self.k = k
        self.gap_slack = gap_slack
        self.autotune_top = autotune_top
        self.eval_tasks = eval_tasks

    def profile(self, application: Application,
                mode: str = INTERFERENCE) -> ProfilingTable:
        """Step 3: collect the profiling table."""
        return self.profiler.profile(application, mode=mode)

    def optimize(self, application: Application,
                 table: ProfilingTable) -> OptimizationResult:
        """Step 4: generate candidate schedules (levels 1 + 2)."""
        optimizer = BTOptimizer(
            application,
            table.restricted(self.platform.schedulable_classes()),
            k=self.k,
            gap_slack=self.gap_slack,
        )
        return optimizer.optimize()

    def autotune(self, application: Application,
                 optimization: "OptimizationResult | List[ScheduleCandidate]",
                 session: Optional[CampaignSession] = None,
                 ) -> AutotuneResult:
        """Step 5 (selection): measure top candidates on the device."""
        tuner = Autotuner(
            application, self.platform, eval_tasks=self.eval_tasks
        )
        return tuner.tune(optimization, top=self.autotune_top,
                          session=session)

    def run(self, application: Application,
            session: Optional[CampaignSession] = None) -> DeploymentPlan:
        """The fully automated end-to-end flow.

        A ``session`` (``repro run --session``) makes it durable without
        a second copy of it: the session checkpoints every profiling
        cell, the candidate log and every autotune measurement as this
        flow produces them, and reads back the ones already on disk.
        """
        table = self.profiler.profile(application, session=session)
        optimize = self.optimize if session is None else session.optimize
        optimization = optimize(application, table)
        autotune = self.autotune(application, optimization, session)
        return DeploymentPlan(
            application=application,
            platform=self.platform,
            table=table,
            optimization=optimization,
            autotune=autotune,
        )

    def deploy_adaptive(self, plan: DeploymentPlan,
                        window_tasks: int = 20):
        """Wrap a plan in an adaptive, fault-recovering deployment.

        The returned
        :class:`~repro.core.adaptive.AdaptivePipeline` executes the
        plan in windows and - fed a fault injector - survives permanent
        PU dropout by falling back to the best cached candidate avoiding
        the dead PU.
        """
        return AdaptivePipeline(
            application=plan.application,
            platform=self.platform,
            candidates=plan.optimization.candidates,
            window_tasks=window_tasks,
            eval_tasks=self.eval_tasks,
        )
