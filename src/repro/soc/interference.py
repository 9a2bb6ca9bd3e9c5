"""Intra-application interference model.

This is the phenomenon the whole paper is about (sections 3.2 and 5.3):
on edge SoCs, what the *other* PUs are doing changes a PU's throughput, in
platform-specific and even counter-intuitive ways:

* shared-DRAM bandwidth contention slows memory-bound kernels everywhere;
* vendor DVFS governors *boost* some PUs under system load - the mobile
  GPUs (Vulkan) and the OnePlus little cores got faster in the paper's
  measurements - while thermal/power budgets slow others (Jetson GPU,
  most CPU clusters).

The model exposes exactly what the rate-based discrete-event simulator
needs: given that a PU executes a kernel with memory-boundedness ``beta``
and bandwidth demand ``d`` while a set of co-runners draws bandwidth and
keeps ``co_load`` of the other PUs busy, produce an instantaneous *speed
multiplier* (< 1 means slower than isolated).

Design note: the profiler never sees this class.  It only observes times,
which is what makes the reproduction honest: interference-aware profiling
(paper section 3.2) measures the co-run condition, it does not read the
model's parameters.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field
from typing import Dict, Iterable, Mapping, Optional, Set, Tuple

from repro.errors import PlatformError


@dataclass(frozen=True)
class DvfsCurve:
    """Frequency response of one PU class to co-run load.

    ``speed_at_full_load`` is the compute-speed multiplier when *all* other
    PUs are busy; at partial load the multiplier interpolates linearly from
    1.0.  Values above 1.0 model vendor boost behaviour (paper section 5.3
    observed up to ~2x GPU speedups under heavy CPU load).
    """

    speed_at_full_load: float

    def speed(self, co_load: float) -> float:
        """Compute-speed multiplier at a given co-run load."""
        if not 0.0 <= co_load <= 1.0:
            raise PlatformError(f"co_load must be in [0, 1], got {co_load}")
        return 1.0 + (self.speed_at_full_load - 1.0) * co_load


@dataclass(frozen=True)
class InterferenceModel:
    """Contention + DVFS response for one platform.

    Attributes:
        dram_bw_gbps: Total DRAM bandwidth shared by every PU (UMA).
        dvfs: Per-PU-class DVFS curves.
    """

    dram_bw_gbps: float
    dvfs: Mapping[str, DvfsCurve] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.dram_bw_gbps <= 0:
            raise PlatformError("dram_bw_gbps must be positive")

    # ------------------------------------------------------------------
    def compute_speed(self, pu_class: str, co_load: float) -> float:
        """Compute-side speed multiplier for ``pu_class`` when a fraction
        ``co_load`` of the other PUs is busy."""
        curve = self.dvfs.get(pu_class)
        if curve is None:
            return 1.0
        return curve.speed(co_load)

    def bandwidth_factor(
        self, demand_gbps: float, total_demand_gbps: float
    ) -> float:
        """Fraction of its requested bandwidth a PU actually achieves.

        Bandwidth is allocated proportionally to demand when the sum of all
        demands exceeds the DRAM capability (a standard fair-share memory
        controller abstraction).
        """
        if demand_gbps <= 0.0:
            return 1.0
        if total_demand_gbps <= self.dram_bw_gbps:
            return 1.0
        return self.dram_bw_gbps / total_demand_gbps

    def speed_multiplier(
        self,
        pu_class: str,
        memory_boundedness: float,
        demand_gbps: float,
        total_demand_gbps: float,
        co_load: float,
    ) -> float:
        """Overall instantaneous speed multiplier for a running kernel.

        The kernel's time splits into a compute-bound part (scaled by the
        DVFS response) and a memory-bound part (scaled by the achieved
        bandwidth share); the multiplier is the harmonic combination:

        ``1 / ((1 - beta) / compute_speed + beta / bandwidth_factor)``
        """
        if not 0.0 <= memory_boundedness <= 1.0:
            raise PlatformError(
                f"memory_boundedness must be in [0, 1], got "
                f"{memory_boundedness}"
            )
        compute = self.compute_speed(pu_class, co_load)
        bandwidth = self.bandwidth_factor(demand_gbps, total_demand_gbps)
        beta = memory_boundedness
        return 1.0 / ((1.0 - beta) / compute + beta / bandwidth)


@dataclass(frozen=True)
class ExternalLoad:
    """Co-runner load from *outside* one pipeline's own chunks.

    The single-pipeline simulator derives interference from its own
    active set; a multi-tenant SoC adds co-runners the pipeline cannot
    see: other tenants' chunks on other PU classes, and foreign
    processes pinned anywhere.  This is the accounting object the
    serving layer hands the simulator:

    Attributes:
        busy: PU class -> fraction of time that class is kept busy by
            external co-runners (0 = idle, 1 = saturated).
        demand_gbps: Total DRAM bandwidth the external co-runners draw
            (contends with the pipeline on the shared memory
            controller).

    Busy load on a *different* class feeds the DVFS ``co_load`` input;
    busy load on the *same* class models time-sharing and divides the
    achievable rate by ``1 + fraction`` (fair-share scheduling of two
    co-located apps on one cluster).

    The dataclass is frozen but ``busy`` is a mapping, so an instance
    cannot be hashed; :attr:`key` is the hashable value to key on.
    """

    busy: Mapping[str, float] = field(default_factory=dict)
    demand_gbps: float = 0.0

    def __post_init__(self) -> None:
        for pu_class, fraction in self.busy.items():
            if not 0.0 <= fraction <= 1.0:
                raise PlatformError(
                    f"external busy fraction for {pu_class!r} must be "
                    f"in [0, 1], got {fraction}"
                )
        if self.demand_gbps < 0.0:
            raise PlatformError("external demand_gbps must be >= 0")

    @property
    def is_empty(self) -> bool:
        return self.demand_gbps == 0.0 and not any(
            fraction > 0.0 for fraction in self.busy.values()
        )

    @functools.cached_property
    def key(self) -> Tuple[Tuple[Tuple[str, float], ...], float]:
        """The load as a hashable value: sorted busy items + demand.

        Computed once per instance.  Loads built in different insertion
        orders share a key; loads differing in any fraction or in demand
        do not.  Conservative: a zero-fraction entry changes the key
        although it changes no rate, so keying a memo on this can miss
        but never hit wrongly.
        """
        return tuple(sorted(self.busy.items())), self.demand_gbps

    def combine(self, other: Optional["ExternalLoad"]) -> "ExternalLoad":
        """Superpose two external loads.

        Busy fractions add and saturate at 1.0 (two co-runners cannot
        keep one cluster more than fully busy); bandwidth demands add
        unboundedly (the memory controller sees the sum).
        """
        if other is None or other.is_empty:
            return self
        busy: Dict[str, float] = dict(self.busy)
        for pu_class, fraction in other.busy.items():
            busy[pu_class] = min(busy.get(pu_class, 0.0) + fraction, 1.0)
        return ExternalLoad(
            busy=busy, demand_gbps=self.demand_gbps + other.demand_gbps
        )

    def compute_only(self) -> "ExternalLoad":
        """This load with its DRAM demand stripped (busy kept).

        Counterfactual input for blame decomposition: comparing against
        the full load isolates how much slowdown the source's
        *bandwidth* contention contributes.
        """
        return ExternalLoad(busy=dict(self.busy), demand_gbps=0.0)

    def bandwidth_only(self) -> "ExternalLoad":
        """This load with its busy fractions stripped (demand kept).

        Counterfactual input for blame decomposition: comparing against
        the full load isolates the source's *compute* contention (DVFS
        co-load plus same-class time-sharing).
        """
        return ExternalLoad(busy={}, demand_gbps=self.demand_gbps)

    @classmethod
    def none(cls) -> "ExternalLoad":
        return cls()

    @classmethod
    def combined(
        cls, loads: Iterable[Optional["ExternalLoad"]]
    ) -> "ExternalLoad":
        """Superpose any number of loads (tenants plus injected drift)."""
        total = cls()
        for load in loads:
            if load is not None:
                total = total.combine(load)
        return total


def external_co_load(
    busy_classes: Set[str],
    pu_class: str,
    external: Optional[ExternalLoad],
    total_other_pus: int,
) -> float:
    """DVFS co-load for ``pu_class`` given internal *and* external load.

    The pipeline's own active chunks contribute 1.0 per distinct other
    class (they run flat out while active); external co-runners
    contribute their busy fraction on classes the pipeline is not
    already driving.  Saturates at 1.0, the interference-heavy
    profiling condition.
    """
    if total_other_pus <= 0:
        return 0.0
    others = set(busy_classes) - {pu_class}
    busy = float(len(others))
    if external is not None:
        # Summed in key (class-name) order, not the mapping's insertion
        # order: float addition is not associative, and equal loads
        # must give bit-equal rates for ExternalLoad.key to be exact.
        for cls, fraction in external.key[0]:
            if cls != pu_class and cls not in others:
                busy += fraction
    return min(busy / total_other_pus, 1.0)
