"""The virtual SoC platform: PUs + UMA memory + interference + timers.

A :class:`Platform` is the ground-truth oracle of the reproduction.  Every
"measured" number in the experiments ultimately comes from one
:meth:`Platform.stage_cost` per (kernel, PU) - read under a steady co-run
condition by :meth:`Platform.true_time` / :meth:`Platform.profiling_times`,
or integrated over time by the discrete-event pipeline simulator - plus
deterministic measurement noise.
The profiler, optimizer and implementer only ever observe noisy times -
they never read the model parameters - which preserves the paper's
black-box methodology (section 3.2).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.errors import PlatformError
from repro.soc.affinity import AffinityMap
from repro.soc.cost_model import StageCost, pu_cost
from repro.soc.interference import InterferenceModel
from repro.soc.pu import GPU, CpuCluster, Gpu
from repro.soc.timer import MeasurementNoise
from repro.soc.workprofile import WorkProfile


@dataclass
class Platform:
    """A complete edge SoC description (paper Table 2 analogue).

    Attributes:
        name: Registry key, e.g. ``pixel7a``.
        display_name: e.g. ``Google Pixel 7a``.
        soc_model: Marketing SoC name.
        clusters: CPU clusters keyed by PU class (``big``/``medium``/
            ``little``).
        gpu: The integrated GPU, or ``None`` for CPU-only parts.
        interference: Contention + DVFS model.
        affinity: Thread-affinity map (which classes are schedulable).
        noise: Measurement-noise source for all virtual timers.
        os_name: Informational.
    """

    name: str
    display_name: str
    soc_model: str
    clusters: Dict[str, CpuCluster]
    gpu: Optional[Gpu]
    interference: InterferenceModel
    affinity: AffinityMap
    noise: MeasurementNoise = field(default_factory=MeasurementNoise)
    os_name: str = "Linux"

    def __post_init__(self) -> None:
        if not self.clusters:
            raise PlatformError("a platform needs at least one CPU cluster")
        for pu_class, cluster in self.clusters.items():
            if cluster.pu_class != pu_class:
                raise PlatformError(
                    f"cluster keyed {pu_class!r} declares class "
                    f"{cluster.pu_class!r}"
                )

    # ------------------------------------------------------------------
    # Topology
    # ------------------------------------------------------------------
    def pu(self, pu_class: str) -> "CpuCluster | Gpu":
        """The PU object for a class name."""
        if pu_class == GPU:
            if self.gpu is None:
                raise PlatformError(f"{self.name} has no GPU")
            return self.gpu
        try:
            return self.clusters[pu_class]
        except KeyError:
            raise PlatformError(
                f"{self.name} has no PU class {pu_class!r}"
            ) from None

    def pu_classes(self) -> Tuple[str, ...]:
        """Every PU class physically present (profiling covers all)."""
        classes = tuple(self.clusters)
        if self.gpu is not None:
            classes = classes + (GPU,)
        return classes

    def schedulable_classes(self) -> Tuple[str, ...]:
        """PU classes the optimizer may target (pinnable only)."""
        classes = []
        for pu_class in self.affinity.schedulable_classes():
            if pu_class == GPU:
                if self.gpu is not None:
                    classes.append(pu_class)
            elif pu_class in self.clusters:
                classes.append(pu_class)
        return tuple(classes)

    # ------------------------------------------------------------------
    # Ground-truth timing
    # ------------------------------------------------------------------
    def stage_cost(self, work: WorkProfile, pu_class: str) -> StageCost:
        """One roofline evaluation of ``work`` on an idle ``pu_class``;
        never kept here - the platform's constants may be edited."""
        return pu_cost(work, self.pu(pu_class)).stage_cost(work.bytes_moved)

    def isolated_time(self, work: WorkProfile, pu_class: str) -> float:
        """Isolated wall-clock seconds for one invocation."""
        return pu_cost(work, self.pu(pu_class)).total_s

    def bandwidth_demand(self, work: WorkProfile, pu_class: str) -> float:
        """Average GB/s the kernel draws while running in isolation."""
        return self.stage_cost(work, pu_class).demand_gbps

    def true_time(
        self,
        work: WorkProfile,
        pu_class: str,
        co_load: float = 0.0,
        other_demand_gbps: float = 0.0,
    ) -> float:
        """Wall-clock seconds under a *steady* co-run condition.

        Args:
            work: The kernel invocation.
            pu_class: Where it runs.
            co_load: Fraction of the other PUs concurrently busy (0 =
                isolated, 1 = the paper's interference-heavy condition).
            other_demand_gbps: Total DRAM bandwidth drawn by co-runners.
        """
        return self._co_run_time(self.stage_cost(work, pu_class), pu_class,
                                 co_load, other_demand_gbps)

    def _co_run_time(self, cost: StageCost, pu_class: str, co_load: float,
                     other_demand_gbps: float) -> float:
        # The fixed dispatch/launch overhead does not scale with
        # interference; only the overlapped compute/memory portion does.
        multiplier = self.interference.speed_multiplier(
            pu_class, cost.memory_boundedness, demand_gbps=cost.demand_gbps,
            total_demand_gbps=cost.demand_gbps + other_demand_gbps,
            co_load=co_load,
        )
        return cost.work_s / multiplier + cost.overhead_s

    def profiling_times(
        self, work: WorkProfile
    ) -> Dict[str, Tuple[float, float]]:
        """``(isolated, interference-heavy)`` seconds of ``work`` on every
        PU class - BT-Profiler's two conditions (paper section 3.2) from
        one roofline evaluation per class.  Interference-heavy is *every
        other PU running the same computation*: the co-runners' demand is
        the sum, in class order, of the other classes' own demands.
        """
        costs = {pu: self.stage_cost(work, pu) for pu in self.pu_classes()}
        times = {}
        for pu, cost in costs.items():
            others = sum(other.demand_gbps for other_pu, other
                         in costs.items() if other_pu != pu)
            times[pu] = (self._co_run_time(cost, pu, 0.0, 0.0),
                         self._co_run_time(cost, pu, 1.0, others))
        return times

    def instantaneous_rate(
        self,
        memory_boundedness: float,
        pu_class: str,
        demand_gbps: float,
        total_demand_gbps: float,
        co_load: float,
    ) -> float:
        """Progress-rate multiplier used by the discrete-event simulator."""
        return self.interference.speed_multiplier(
            pu_class=pu_class,
            memory_boundedness=memory_boundedness,
            demand_gbps=demand_gbps,
            total_demand_gbps=total_demand_gbps,
            co_load=co_load,
        )

    # ------------------------------------------------------------------
    # Measurement
    # ------------------------------------------------------------------
    def measure(
        self, true_seconds: float, rng: np.random.Generator
    ) -> float:
        """One noisy timer observation of a true duration."""
        return self.noise.perturb(true_seconds, rng)

    def measure_cells(self, cells: Sequence[Tuple[float, tuple]],
                      count: int) -> List[List[float]]:
        """``count`` timer observations of each ``(true_seconds, key)``
        cell, from the stream ``measurement_rng(*key)`` gives."""
        return self.noise.perturb_cells(
            [(seconds, (self.name, *key)) for seconds, key in cells], count)

    def measurement_rng(self, *key: object) -> np.random.Generator:
        """Deterministic RNG stream keyed by (platform, *key)."""
        return self.noise.rng(self.name, *key)

    # ------------------------------------------------------------------
    def describe(self) -> str:
        """Multi-line hardware summary (Table 2 style)."""
        lines = [f"{self.display_name} ({self.soc_model}, {self.os_name})"]
        for pu_class, cluster in self.clusters.items():
            lines.append(
                f"  {pu_class}: {cluster.cores}x {cluster.model} @ "
                f"{cluster.freq_ghz:.2f} GHz "
                f"({cluster.peak_gflops:.0f} GFLOP/s)"
            )
        if self.gpu is not None:
            lines.append(
                f"  gpu: {self.gpu.model} ({self.gpu.api}, "
                f"{self.gpu.peak_gflops:.0f} GFLOP/s)"
            )
        lines.append(
            f"  DRAM: {self.interference.dram_bw_gbps:.0f} GB/s shared (UMA)"
        )
        return "\n".join(lines)
