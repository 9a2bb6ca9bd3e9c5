"""Work characterization consumed by the analytical cost model.

The paper treats kernels as black boxes and only ever observes wall-clock
time.  Our virtual SoC needs *something* to turn a kernel invocation into a
time, so every kernel in :mod:`repro.kernels` describes one invocation with
a :class:`WorkProfile`: how much arithmetic it does, how much memory it
moves, how parallel/divergent/irregular it is.  The cost model
(:mod:`repro.soc.cost_model`) combines a profile with a processing-unit
description to produce an isolated execution time; the interference model
then perturbs it when other PUs are busy.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.errors import KernelError


@dataclass(frozen=True)
class WorkProfile:
    """One kernel invocation, characterized for the cost model.

    Attributes:
        flops: Useful arithmetic operations performed (floating point or
            integer; the model does not distinguish).
        bytes_moved: DRAM traffic in bytes (reads + writes), assuming the
            working set misses in cache.
        parallelism: Maximum number of hardware threads the kernel can keep
            busy (e.g. ``n`` for a DOALL loop over ``n`` elements, a small
            number for a serial traversal).
        parallel_fraction: Amdahl fraction of the work that parallelizes.
        divergence: [0, 1] - how much control flow diverges between
            neighbouring work items.  Hurts SIMT machines (GPUs) badly and
            out-of-order CPUs mildly.
        irregularity: [0, 1] - how irregular the memory access pattern is
            (pointer chasing, scattered gathers).  Reduces achieved
            bandwidth and compute efficiency; big OoO cores tolerate it
            best.
        cpu_efficiency: Implementation-quality factor for the OpenMP-style
            CPU kernel, as a fraction of the cluster's achievable peak.
            Mobile CPU kernels in the paper are plain OpenMP loops (Fig. 3),
            not hand-tiled GEMMs, so dense kernels carry small values here.
        gpu_efficiency: Same for the Vulkan kernel.
        gpu_cuda_efficiency: Optional override used on CUDA devices -
            mature CUDA library kernels (CUB radix sort, device-wide
            scans) are far better optimized than hand-written mobile
            Vulkan compute shaders, which is why the Jetson's GPU wins
            the Octree workload while the mobile GPUs lose it (Table 3).
            ``None`` means "same as gpu_efficiency".
        gpu_launches: Number of device kernel launches one invocation
            issues (multi-pass algorithms such as radix sort launch many,
            paying per-launch overhead each time).
    """

    flops: float
    bytes_moved: float
    parallelism: float = 1.0
    parallel_fraction: float = 1.0
    divergence: float = 0.0
    irregularity: float = 0.0
    cpu_efficiency: float = 1.0
    gpu_efficiency: float = 1.0
    gpu_cuda_efficiency: Optional[float] = None
    gpu_launches: int = 1

    def __post_init__(self) -> None:
        if self.flops < 0 or self.bytes_moved < 0:
            raise KernelError("flops and bytes_moved must be non-negative")
        if self.parallelism < 1:
            raise KernelError("parallelism must be >= 1")
        for name in ("parallel_fraction", "divergence", "irregularity"):
            value = getattr(self, name)
            if not 0.0 <= value <= 1.0:
                raise KernelError(f"{name} must be in [0, 1], got {value}")
        for name in ("cpu_efficiency", "gpu_efficiency"):
            value = getattr(self, name)
            if not 0.0 < value <= 1.5:
                raise KernelError(
                    f"{name} must be in (0, 1.5], got {value}"
                )
        if self.gpu_cuda_efficiency is not None and not (
            0.0 < self.gpu_cuda_efficiency <= 1.5
        ):
            raise KernelError("gpu_cuda_efficiency must be in (0, 1.5]")
        if self.gpu_launches < 1:
            raise KernelError("gpu_launches must be >= 1")

    def effective_gpu_efficiency(self, api: str) -> float:
        """The GPU implementation-efficiency for a given device API."""
        if api == "cuda" and self.gpu_cuda_efficiency is not None:
            return self.gpu_cuda_efficiency
        return self.gpu_efficiency
