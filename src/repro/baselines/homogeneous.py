"""Homogeneous baselines (paper section 5.1).

The baselines use the same kernels as BetterTogether but run every stage
on a single PU type:

* **GPU-only** - the accelerator-oriented deployment: offload everything.
* **CPU-only** - big cores only; the paper found mixing big and little
  cores degrades CPU-only performance through load imbalance, so big-only
  is the strongest CPU baseline.

Both are measured through the same pipeline executor as BetterTogether's
schedules (a single chunk still multi-buffers), so comparisons are
apples-to-apples.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Tuple

from repro.core.profiler import ISOLATED, BTProfiler
from repro.core.schedule import Schedule
from repro.runtime.simulator import SimulatedPipelineExecutor
from repro.soc.platform import Platform
from repro.soc.pu import BIG, GPU
from repro.stage import Application


def cpu_only_schedule(application: Application) -> Schedule:
    """Every stage on the big cores."""
    return Schedule.homogeneous(application.num_stages, BIG)


def gpu_only_schedule(application: Application) -> Schedule:
    """Every stage offloaded to the GPU."""
    return Schedule.homogeneous(application.num_stages, GPU)


@dataclass(frozen=True)
class BaselineResult:
    """Measured homogeneous baselines for one (app, platform) pair."""

    application: str
    platform: str
    cpu_latency_s: float
    gpu_latency_s: float

    @property
    def best_latency_s(self) -> float:
        return min(self.cpu_latency_s, self.gpu_latency_s)

    @property
    def best_name(self) -> str:
        return "cpu" if self.cpu_latency_s <= self.gpu_latency_s else "gpu"

    def as_row(self) -> Tuple[str, str]:
        """Table 3 cell: 'CPU | GPU' in ms with the winner implied."""
        return (
            f"{self.cpu_latency_s * 1e3:.2f}",
            f"{self.gpu_latency_s * 1e3:.2f}",
        )


def measure_schedule(application: Application, schedule: Schedule,
                     platform: Platform, n_tasks: int = 30) -> float:
    """Measured steady per-task latency of any schedule (seconds)."""
    executor = SimulatedPipelineExecutor(
        application, schedule.chunks(), platform
    )
    return executor.measure_per_task_latency(n_tasks)


def measure_baselines(application: Application, platform: Platform,
                      n_tasks: int = 30) -> BaselineResult:
    """Measure both homogeneous baselines (Table 3's raw numbers)."""
    return BaselineResult(
        application=application.name,
        platform=platform.name,
        cpu_latency_s=measure_schedule(
            application, cpu_only_schedule(application), platform, n_tasks
        ),
        gpu_latency_s=measure_schedule(
            application, gpu_only_schedule(application), platform, n_tasks
        ),
    )


def per_stage_baseline_times(
    application: Application, platform: Platform
) -> Dict[str, Dict[str, float]]:
    """Isolated per-stage latency on each PU (Fig. 1's bars), measured
    through the profiler's black-box path."""
    table = BTProfiler(platform).profile(application, mode=ISOLATED)
    return {
        stage: table.row(stage) for stage in application.stage_names
    }
