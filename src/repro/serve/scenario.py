"""The serving soak preset behind ``repro serve``, CI and the
acceptance soak test: its tenants, run as a one-shard fleet under a
drift (:func:`repro.fleet.scenario.serve_fleet`) on the soak runner.

The soak packs three concurrent tenants onto disjoint PU partitions of
one SoC (partition cap 1, so pixel7a's four clusters hold all three
with one to spare), pins the drift victim to a known class so
interference can be injected *on* that class mid-run, and adds a
fourth submission whose required class is already taken - with no
room to wait it must be rejected (no-oversubscription).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List

import numpy as np

from repro.apps.synthetic import build_synthetic_application
from repro.errors import ServeError
from repro.kernels.base import CPU, GPU
from repro.serve.tenant import TenantSpec
from repro.soc.platform import Platform
from repro.soc.workprofile import WorkProfile
from repro.stage import Application, Stage

#: The class the drift victim is pinned to (and drift injected on).
DRIFT_CLASS = "big"
#: The class the high-priority tenant and the doomed probe both need.
CONTESTED_CLASS = "gpu"


def _memory_bound_application(seed: int, stage_count: int) -> Application:
    """The drift victim's workload: a bandwidth-limited streaming app.

    Memory-bound stages are nearly core-class-insensitive (every CPU
    cluster is limited by the same DRAM), which is what makes fleeing
    a contended cluster *profitable*: the weaker core costs little,
    the time-sharing penalty on the contended one costs a lot.  A
    compute-bound app would rather sit out the drift on the big cores.
    """

    def kernel(task):
        task["payload"] += np.float32(1.0)

    rng = np.random.default_rng(600_000 + seed)
    stages = []
    for index in range(stage_count):
        flops = 18e6 * float(rng.uniform(0.85, 1.15))
        stages.append(Stage(
            name=f"stream-{index}",
            work=WorkProfile(
                flops=flops,
                bytes_moved=flops / 2.0,  # 2 flop/byte: DRAM-limited
                parallelism=2e5,
                parallel_fraction=0.98,
                divergence=0.05,
                irregularity=0.10,
                cpu_efficiency=0.45,
                gpu_efficiency=0.30,
            ),
            kernels={CPU: kernel, GPU: kernel},
        ))

    def make_task(task_seed: int) -> Dict[str, np.ndarray]:
        task_rng = np.random.default_rng(700_000 + task_seed)
        return {"payload": task_rng.random(256).astype(np.float32)}

    return Application(
        name=f"serve-membound-{seed}",
        stages=stages,
        make_task=make_task,
        description="Bandwidth-limited streaming pipeline (soak drift "
                    "victim)",
        input_kind="Synthetic",
    )


@dataclass(frozen=True)
class SoakScenario:
    """Parameters of one deterministic soak run."""

    platform_name: str = "pixel7a"
    seed: int = 7
    windows: int = 30
    window_tasks: int = 10
    drift_start_tick: int = 4

    @property
    def max_ticks(self) -> int:
        """The tick budget: ``windows`` plus slack, so a soak that
        drains at tick ``windows`` never meets it (48 at the default
        30)."""
        return self.windows + 18

    def __post_init__(self) -> None:
        if self.windows < 8:
            raise ServeError(
                "soak needs >= 8 windows for a meaningful p95"
            )
        if self.drift_start_tick < 2:
            raise ServeError(
                "drift must start after the baseline window (tick >= 2)"
            )

    def tenants(self) -> List[TenantSpec]:
        """The four submissions, in submission order (three-stage
        applications):

        * ``tenant-gpu``   - needs the GPU (hard), priority 0;
        * ``tenant-drift`` - *prefers* the drift class (soft, so the
          rescheduler may flee it later), priority 1;
        * ``tenant-bg``    - prefers the little cores, priority 0;
          leaves the medium cluster free as the drift victim's escape
          hatch;
        * ``tenant-probe`` - needs the GPU *after* ``tenant-gpu`` holds
          it; with no room to wait, it must be rejected.
        """
        def app(offset: int):
            return build_synthetic_application(
                seed=self.seed + offset, stage_count=3,
            )

        common = dict(windows=self.windows,
                      window_tasks=self.window_tasks)
        return [
            TenantSpec(
                name="tenant-gpu", application=app(1), priority=0,
                required_classes=frozenset({CONTESTED_CLASS}), **common,
            ),
            TenantSpec(
                name="tenant-drift",
                application=_memory_bound_application(
                    self.seed + 2, stage_count=3
                ),
                priority=1,
                preferred_classes=frozenset({DRIFT_CLASS}), **common,
            ),
            TenantSpec(
                name="tenant-bg", application=app(3), priority=0,
                preferred_classes=frozenset({"little"}), **common,
            ),
            # Same application as tenant-gpu: exercises the plan cache
            # *and* guarantees its required class is already held.
            TenantSpec(
                name="tenant-probe", application=app(1), priority=2,
                required_classes=frozenset({CONTESTED_CLASS}), **common,
            ),
        ]

    def check(self, platform: Platform) -> None:
        """Refuse a platform that lacks a PU class the soak pins."""
        for needed in (DRIFT_CLASS, CONTESTED_CLASS, "little"):
            if needed not in platform.schedulable_classes():
                raise ServeError(
                    f"soak scenario needs PU class {needed!r}; platform "
                    f"{platform.name!r} lacks it"
                )

