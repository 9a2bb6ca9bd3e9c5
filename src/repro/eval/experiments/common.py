"""Shared machinery for the per-figure/table experiment drivers.

Every experiment module exposes ``run_*`` (returns structured data) and
``format_*`` (renders the paper-style table/figure series as text).  The
benchmarks under ``benchmarks/`` and the EXPERIMENTS.md generator both
call these, so the numbers in the docs and the numbers in the bench
output come from one code path.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Sequence, Tuple

from repro.apps import (
    build_alexnet_dense,
    build_alexnet_sparse,
    build_octree_application,
)
from repro.core.autotuner import Autotuner
from repro.core.optimizer import OptimizationResult, ScheduleCandidate
from repro.soc import PLATFORM_NAMES, Platform, get_platform
from repro.stage import Application

#: Paper display names, in evaluation order.
PLATFORM_LABELS: Dict[str, str] = {
    "pixel7a": "Google",
    "oneplus11": "OnePlus",
    "jetson_orin_nano": "Jetson",
    "jetson_orin_nano_lp": "Jetson (LP)",
}

#: Paper's short workload labels (Fig. 6 rows).
APP_LABELS: Dict[str, str] = {
    "alexnet-dense": "CIFAR-D",
    "alexnet-sparse": "CIFAR-S",
    "octree": "Tree",
}

APP_ORDER = ("alexnet-dense", "alexnet-sparse", "octree")


@dataclass
class ExperimentScale:
    """Knobs that trade fidelity for runtime.

    ``paper()`` reproduces the full configuration; ``quick()`` shrinks
    inputs and candidate counts for CI-speed smoke runs.
    """

    n_points: int = 100_000
    sparse_batch: int = 128
    k: int = 20
    repetitions: int = 30
    eval_tasks: int = 30

    @classmethod
    def paper(cls) -> "ExperimentScale":
        return cls()

    @classmethod
    def quick(cls) -> "ExperimentScale":
        return cls(n_points=20_000, sparse_batch=32, k=8, repetitions=5,
                   eval_tasks=12)


def build_applications(scale: ExperimentScale) -> Dict[str, Application]:
    """The three evaluated applications at a given scale, paper order."""
    return {
        "alexnet-dense": build_alexnet_dense(),
        "alexnet-sparse": build_alexnet_sparse(batch=scale.sparse_batch),
        "octree": build_octree_application(n_points=scale.n_points),
    }


def evaluation_platforms() -> List[Platform]:
    return [get_platform(name, 2025) for name in PLATFORM_NAMES]


def measure_candidates(
    application: Application,
    platform: Platform,
    optimization: "OptimizationResult | Sequence[ScheduleCandidate]",
    eval_tasks: int,
) -> Tuple[List[float], List[float]]:
    """(predicted, measured) latency pairs for candidates, in rank order."""
    tuner = Autotuner(application, platform, eval_tasks=eval_tasks)
    result = tuner.tune(optimization)
    predicted = [e.predicted_latency_s for e in result.entries]
    measured = [e.measured_latency_s for e in result.entries]
    return predicted, measured
