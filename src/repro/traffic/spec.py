"""Workload specifications for the open-loop traffic generator.

A :class:`TrafficSpec` is a *description* of production load, not the
load itself: tier mix, arrival process, time-varying rate shape, and
session-length distribution.  Feeding one spec and one seed to
:class:`~repro.traffic.generator.TrafficGenerator` yields a concrete
arrival stream as a pure function of (spec, seed) - the property every
determinism test in :mod:`tests.traffic` leans on.

Everything here round-trips through plain dicts so a spec can ride
inside a checksummed :class:`~repro.traffic.trace.TrafficTrace`
artifact and a replayed trace can prove it was generated from the same
workload description.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, Tuple

from repro.errors import TrafficError

#: Supported arrival processes.
POISSON = "poisson"
MMPP = "mmpp"

ARRIVAL_PROCESSES = (POISSON, MMPP)


def int_field(data: Dict[str, Any], key: str) -> int:
    """``data[key]``, which must already be an integer: ``int()`` would
    turn ``2.9`` into 2, ``true`` into 1 and ``"2"`` into 2, and a
    replay would run a stream nobody recorded."""
    value = data[key]
    if type(value) is not int:
        raise TrafficError(
            f"field {key!r} must be an integer, not {value!r}"
        )
    return value


@dataclass(frozen=True)
class TierSpec:
    """One service tier in the tenant population.

    Attributes:
        name: Tier id ("gold" > "silver" > "bronze" by convention).
        priority: Fleet priority (higher survives shedding longer).
        weight: Relative share of arrivals landing in this tier.
        slo_slowdown: The tier's SLO, stated as the largest acceptable
            ratio of a measured window latency to the tenant's
            contention-free (isolated-prediction) reference.  A window
            at exactly the threshold attains.
        window_tasks: Tasks streamed per execution window.
    """

    name: str
    priority: int
    weight: float
    slo_slowdown: float
    window_tasks: int = 6

    def __post_init__(self) -> None:
        if not self.name:
            raise TrafficError("a tier needs a non-empty name")
        if self.weight <= 0.0:
            raise TrafficError(
                f"tier {self.name!r} weight must be positive"
            )
        if self.slo_slowdown < 1.0:
            raise TrafficError(
                f"tier {self.name!r} slo_slowdown must be >= 1.0 "
                "(a slowdown below 1.0 is faster than isolated)"
            )
        if self.window_tasks < 2:
            raise TrafficError(
                f"tier {self.name!r} window_tasks must be >= 2"
            )

    def to_dict(self) -> Dict[str, Any]:
        """The tier as a JSON-ready spec record."""
        return {
            "name": self.name,
            "priority": self.priority,
            "weight": self.weight,
            "slo_slowdown": self.slo_slowdown,
            "window_tasks": self.window_tasks,
        }


@dataclass(frozen=True)
class BurstSpec:
    """A seeded burst overlay: the arrival rate is multiplied by
    ``multiplier`` over control ticks [start_tick, end_tick)."""

    start_tick: int
    end_tick: int
    multiplier: float

    def __post_init__(self) -> None:
        if self.start_tick < 0:
            raise TrafficError("burst start_tick must be >= 0")
        if self.end_tick <= self.start_tick:
            raise TrafficError(
                "burst end_tick must be > start_tick"
            )
        if self.multiplier <= 0.0:
            raise TrafficError("burst multiplier must be positive")

    def active_at(self, tick: int) -> bool:
        """Whether the burst is in force at ``tick`` (end exclusive)."""
        return self.start_tick <= tick < self.end_tick

    def to_dict(self) -> Dict[str, Any]:
        """The burst as a JSON-ready spec record."""
        return {
            "start_tick": self.start_tick,
            "end_tick": self.end_tick,
            "multiplier": self.multiplier,
        }


#: Default three-tier mix: a small latency-critical gold slice over a
#: broad best-effort base, the shape of a consumer serving fleet.
DEFAULT_TIERS: Tuple[TierSpec, ...] = (
    TierSpec(name="gold", priority=2, weight=1.0, slo_slowdown=1.35),
    TierSpec(name="silver", priority=1, weight=2.0, slo_slowdown=1.6),
    TierSpec(name="bronze", priority=0, weight=3.0, slo_slowdown=2.0),
)


@dataclass(frozen=True)
class TrafficSpec:
    """One open-loop workload description.

    Attributes:
        ticks: Generation horizon in fleet control ticks.
        arrival_process: ``"poisson"`` (constant-intensity counts) or
            ``"mmpp"`` (two-state Markov-modulated Poisson: the
            intensity switches between a calm and a surge state).
        arrivals_per_tick: Base arrival intensity (tenants/tick)
            before diurnal, burst, and MMPP modulation.
        load_multiplier: Uniform scale on the arrival intensity - the
            knob overload sweeps turn (1.0 = the spec's natural load).
        diurnal_amplitude: Relative swing of the diurnal sinusoid in
            [0, 1); 0 disables it.
        diurnal_period_ticks: Period of the diurnal curve.
        bursts: Burst overlays (may overlap; multipliers compose).
        mmpp_surge_factor: Intensity multiplier while the MMPP chain
            is in its surge state.
        mmpp_enter_surge: Per-tick probability of switching calm ->
            surge.
        mmpp_exit_surge: Per-tick probability of switching surge ->
            calm.
        tiers: The tier population (weights need not sum to 1).
        session_alpha: Bounded-Pareto tail index for session lengths;
            smaller alpha = heavier tail.
        session_windows_min: Shortest session, in execution windows.
        session_windows_max: Truncation bound for the heavy tail.
        app_pool_size: Distinct applications the population cycles
            through (shared apps give the fleet's plan caches real hit
            traffic, like popular models in production).
        stage_count: Pipeline stages per generated application.
    """

    ticks: int = 64
    arrival_process: str = POISSON
    arrivals_per_tick: float = 0.5
    load_multiplier: float = 1.0
    diurnal_amplitude: float = 0.0
    diurnal_period_ticks: int = 64
    bursts: Tuple[BurstSpec, ...] = ()
    mmpp_surge_factor: float = 3.0
    mmpp_enter_surge: float = 0.1
    mmpp_exit_surge: float = 0.3
    tiers: Tuple[TierSpec, ...] = field(default_factory=lambda: DEFAULT_TIERS)
    session_alpha: float = 1.5
    session_windows_min: int = 2
    session_windows_max: int = 24
    app_pool_size: int = 4
    stage_count: int = 3

    def __post_init__(self) -> None:
        if self.ticks < 1:
            raise TrafficError("ticks must be >= 1")
        if self.arrival_process not in ARRIVAL_PROCESSES:
            raise TrafficError(
                f"unknown arrival process {self.arrival_process!r} "
                f"(expected one of {ARRIVAL_PROCESSES})"
            )
        if self.arrivals_per_tick <= 0.0:
            raise TrafficError("arrivals_per_tick must be positive")
        if self.load_multiplier <= 0.0:
            raise TrafficError("load_multiplier must be positive")
        if not 0.0 <= self.diurnal_amplitude < 1.0:
            raise TrafficError(
                "diurnal_amplitude must be in [0, 1) so the "
                "modulated intensity stays positive"
            )
        if self.diurnal_period_ticks < 2:
            raise TrafficError("diurnal_period_ticks must be >= 2")
        if self.mmpp_surge_factor < 1.0:
            raise TrafficError("mmpp_surge_factor must be >= 1.0")
        for prob, knob in ((self.mmpp_enter_surge, "mmpp_enter_surge"),
                           (self.mmpp_exit_surge, "mmpp_exit_surge")):
            if not 0.0 <= prob <= 1.0:
                raise TrafficError(f"{knob} must be a probability")
        if not self.tiers:
            raise TrafficError("a workload needs at least one tier")
        names = [tier.name for tier in self.tiers]
        if len(set(names)) != len(names):
            raise TrafficError(f"duplicate tier names in {names}")
        if self.session_alpha <= 0.0:
            raise TrafficError("session_alpha must be positive")
        if self.session_windows_min < 1:
            raise TrafficError("session_windows_min must be >= 1")
        if self.session_windows_max < self.session_windows_min:
            raise TrafficError(
                "session_windows_max must be >= session_windows_min"
            )
        if self.app_pool_size < 1:
            raise TrafficError("app_pool_size must be >= 1")
        if self.stage_count < 1:
            raise TrafficError("stage_count must be >= 1")

    def tier(self, name: str) -> TierSpec:
        """The tier called ``name``; an unknown one is a TrafficError."""
        for tier in self.tiers:
            if tier.name == name:
                return tier
        raise TrafficError(f"unknown tier {name!r}")

    def to_dict(self) -> Dict[str, Any]:
        """The spec as a JSON-ready record."""
        return {
            "ticks": self.ticks,
            "arrival_process": self.arrival_process,
            "arrivals_per_tick": self.arrivals_per_tick,
            "load_multiplier": self.load_multiplier,
            "diurnal_amplitude": self.diurnal_amplitude,
            "diurnal_period_ticks": self.diurnal_period_ticks,
            "bursts": [burst.to_dict() for burst in self.bursts],
            "mmpp_surge_factor": self.mmpp_surge_factor,
            "mmpp_enter_surge": self.mmpp_enter_surge,
            "mmpp_exit_surge": self.mmpp_exit_surge,
            "tiers": [tier.to_dict() for tier in self.tiers],
            "session_alpha": self.session_alpha,
            "session_windows_min": self.session_windows_min,
            "session_windows_max": self.session_windows_max,
            "app_pool_size": self.app_pool_size,
            "stage_count": self.stage_count,
        }

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "TrafficSpec":
        try:
            return cls(
                ticks=int_field(data, "ticks"),
                arrival_process=str(data["arrival_process"]),
                arrivals_per_tick=float(data["arrivals_per_tick"]),
                load_multiplier=float(data["load_multiplier"]),
                diurnal_amplitude=float(data["diurnal_amplitude"]),
                diurnal_period_ticks=int_field(data,
                                               "diurnal_period_ticks"),
                bursts=tuple(BurstSpec(
                    start_tick=int_field(b, "start_tick"),
                    end_tick=int_field(b, "end_tick"),
                    multiplier=float(b["multiplier"]),
                ) for b in data["bursts"]),
                mmpp_surge_factor=float(data["mmpp_surge_factor"]),
                mmpp_enter_surge=float(data["mmpp_enter_surge"]),
                mmpp_exit_surge=float(data["mmpp_exit_surge"]),
                tiers=tuple(TierSpec(
                    name=str(t["name"]),
                    priority=int_field(t, "priority"),
                    weight=float(t["weight"]),
                    slo_slowdown=float(t["slo_slowdown"]),
                    window_tasks=int_field(t, "window_tasks"),
                ) for t in data["tiers"]),
                session_alpha=float(data["session_alpha"]),
                session_windows_min=int_field(data,
                                              "session_windows_min"),
                session_windows_max=int_field(data,
                                              "session_windows_max"),
                app_pool_size=int_field(data, "app_pool_size"),
                stage_count=int_field(data, "stage_count"),
            )
        except (KeyError, TypeError, ValueError) as exc:
            raise TrafficError(
                f"malformed traffic spec: {exc}"
            ) from exc
