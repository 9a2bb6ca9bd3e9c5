"""Parameterized synthetic pipeline generator.

Real evaluations need more pipelines than any paper ships.  This module
generates random-but-controlled streaming applications for stress-testing
the optimizer and the runtime:

* ``stage_count`` and ``heterogeneity`` shape the schedule-search space;
* ``heterogeneity`` in [0, 1] controls how differently stages behave
  across PU classes (0: every stage is PU-agnostic, so only pipeline
  balance matters; 1: stages have strong, conflicting PU affinities,
  the regime where BetterTogether shines);
* generated stages carry executable (trivial but real) kernels so both
  runtime back-ends accept them.

Determinism: everything derives from ``seed``.
"""

from __future__ import annotations

from typing import Dict, List

import numpy as np

from repro.errors import KernelError
from repro.kernels.base import CPU, GPU
from repro.soc.workprofile import WorkProfile
from repro.stage import Application, Stage

#: Structural archetypes a synthetic stage can draw from, spanning the
#: paper's stage classes (Table 1's "characteristics").
_ARCHETYPES = (
    # (divergence, irregularity, parallel_fraction, cpu_eff, gpu_eff)
    ("dense-map", 0.03, 0.05, 1.0, 0.1, 0.5),
    ("streaming", 0.05, 0.10, 1.0, 0.45, 0.40),
    ("sparse-gather", 0.35, 0.55, 1.0, 0.45, 0.25),
    ("traversal", 0.45, 0.60, 0.97, 0.40, 0.15),
    ("reduction", 0.15, 0.10, 0.90, 0.45, 0.30),
)


def _stage_kernel(index: int):
    """A real (if tiny) kernel: mixes the payload deterministically so
    functional runs have observable, order-sensitive effects."""

    def kernel(task):
        payload = task["payload"]
        payload += np.float32(index + 1)
        payload *= np.float32(1.0 + 1e-3 * (index + 1))

    return kernel


def build_synthetic_application(
    seed: int,
    stage_count: int = 8,
    heterogeneity: float = 0.7,
) -> Application:
    """Generate a deterministic synthetic pipeline.

    A stage's arithmetic work is log-uniform in [30/4, 30*4] MFLOP.

    Args:
        seed: Drives every random choice.
        stage_count: Number of pipeline stages.
        heterogeneity: [0, 1] - how strongly stages differ in their PU
            affinities (archetype contrast).
    """
    if stage_count < 1:
        raise KernelError("stage_count must be >= 1")
    if not 0.0 <= heterogeneity <= 1.0:
        raise KernelError("heterogeneity must be in [0, 1]")
    rng = np.random.default_rng(400_000 + seed)
    stages: List[Stage] = []
    for index in range(stage_count):
        name, div, irr, pf, cpu_eff, gpu_eff = _ARCHETYPES[
            rng.integers(0, len(_ARCHETYPES))
        ]
        blend = heterogeneity
        # At zero heterogeneity every stage collapses to the neutral
        # 'streaming' archetype; at one, the archetype speaks fully.
        neutral = _ARCHETYPES[1]
        div = blend * div + (1 - blend) * neutral[1]
        irr = blend * irr + (1 - blend) * neutral[2]
        pf = blend * pf + (1 - blend) * neutral[3]
        cpu_eff = blend * cpu_eff + (1 - blend) * neutral[4]
        gpu_eff = blend * gpu_eff + (1 - blend) * neutral[5]
        flops = 30e6 * float(np.exp(rng.uniform(-np.log(4.0), np.log(4.0))))
        work = WorkProfile(
            flops=flops,
            bytes_moved=flops / float(rng.uniform(2.0, 20.0)),
            parallelism=float(rng.uniform(1e3, 1e6)),
            parallel_fraction=pf,
            divergence=div,
            irregularity=irr,
            cpu_efficiency=max(cpu_eff, 0.01),
            gpu_efficiency=max(gpu_eff, 0.01),
        )
        kernel = _stage_kernel(index)
        stages.append(
            Stage(
                name=f"{name}-{index}",
                work=work,
                kernels={CPU: kernel, GPU: kernel},
            )
        )

    def make_task(task_seed: int) -> Dict[str, np.ndarray]:
        task_rng = np.random.default_rng(500_000 + task_seed)
        return {"payload": task_rng.random(256).astype(np.float32)}

    return Application(
        name=f"synthetic-{seed}-n{stage_count}",
        stages=stages,
        make_task=make_task,
        description=f"Synthetic pipeline (heterogeneity="
                    f"{heterogeneity:.2f})",
        input_kind="Synthetic",
    )


def build_bandwidth_bound_application(
    seed: int,
    stage_count: int = 3,
) -> Application:
    """Generate a DRAM-saturating streaming pipeline.

    Every stage moves far more bytes than it computes (~20 MFLOP at
    0.5 flop/byte, well under the roofline ridge), so a single
    instance draws a large share of the SoC's memory bandwidth.  One
    or two co-located instances fit under the DRAM ceiling; packing
    more pushes the *sum* of demands past it, and the fair-share
    memory controller then collapses everyone's memory-bound phase at
    once.  This is the workload class that makes overload superlinear
    - and interference-aware admission control observably better than
    admit-everything - so the traffic layer mixes it into its tenant
    population.
    """
    if stage_count < 1:
        raise KernelError("stage_count must be >= 1")

    def kernel(task):
        task["payload"] += np.float32(1.0)

    rng = np.random.default_rng(700_000 + seed)
    stages: List[Stage] = []
    for index in range(stage_count):
        flops = 20e6 * float(rng.uniform(0.85, 1.15))
        stages.append(Stage(
            name=f"copy-{index}",
            work=WorkProfile(
                flops=flops,
                bytes_moved=flops / 0.5,
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
        task_rng = np.random.default_rng(800_000 + task_seed)
        return {"payload": task_rng.random(256).astype(np.float32)}

    return Application(
        name=f"bwbound-{seed}-n{stage_count}",
        stages=stages,
        make_task=make_task,
        description="Bandwidth-bound pipeline (0.50 flop/byte)",
        input_kind="Synthetic",
    )
