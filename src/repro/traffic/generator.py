"""The seeded open-loop workload generator.

Every random decision is drawn from its own *coordinate-keyed* RNG:
the per-tick arrival count from a generator keyed by (seed, stream,
tick), the per-arrival attributes (tier, session length, application)
from one keyed by (seed, stream, arrival index).  No decision ever
consumes draws from another decision's stream, so the arrival sequence
is a pure function of (spec, seed) and - crucially for the
draw-count-invariance tests - cannot shift when the *fleet* admits,
queues, or rejects a tenant.  The generator is open-loop by
construction: it never observes fleet state at all.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Any, Dict, List

import numpy as np

from repro.errors import TrafficError
from repro.soc.timer import _stable_seed
from repro.traffic.spec import MMPP, TierSpec, TrafficSpec

#: Generated application flavours (cycled across the app pool, so the
#: population mixes compute-bound, memory-bound, and DRAM-saturating
#: pipelines; the last flavour is what makes deep packing collapse and
#: admission control earn its keep).
SYNTHETIC = "synthetic"
MEMORY_BOUND = "memory_bound"
BANDWIDTH_BOUND = "bandwidth_bound"
APP_KINDS = (SYNTHETIC, MEMORY_BOUND, BANDWIDTH_BOUND)


@dataclass(frozen=True)
class ArrivalEvent:
    """One tenant arrival, as pure data.

    The driver materializes the actual
    :class:`~repro.serve.tenant.TenantSpec` (application object
    included) from these fields; keeping the event itself plain makes
    the trace format trivially JSON-serializable.
    """

    tick: int
    name: str
    tier: str
    priority: int
    windows: int
    window_tasks: int
    app_kind: str
    app_seed: int

    def to_dict(self) -> Dict[str, Any]:
        return {
            "tick": self.tick,
            "name": self.name,
            "tier": self.tier,
            "priority": self.priority,
            "windows": self.windows,
            "window_tasks": self.window_tasks,
            "app_kind": self.app_kind,
            "app_seed": self.app_seed,
        }

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "ArrivalEvent":
        try:
            return cls(
                tick=int(data["tick"]),
                name=str(data["name"]),
                tier=str(data["tier"]),
                priority=int(data["priority"]),
                windows=int(data["windows"]),
                window_tasks=int(data["window_tasks"]),
                app_kind=str(data["app_kind"]),
                app_seed=int(data["app_seed"]),
            )
        except (KeyError, TypeError, ValueError) as exc:
            raise TrafficError(
                f"malformed arrival event: {exc}"
            ) from exc


class TrafficGenerator:
    """Generate the arrival stream a spec and seed describe."""

    def __init__(self, spec: TrafficSpec, seed: int = 0):
        self.spec = spec
        self.seed = seed
        # The MMPP modulating chain is inherently sequential (state at
        # tick t depends on t-1), but each *transition* draw is keyed
        # by its tick, so the whole path is still a pure function of
        # (spec, seed).  Precomputed once.
        self._surge: List[bool] = []
        if spec.arrival_process == MMPP:
            surge = False
            for tick in range(spec.ticks):
                rng = self._rng("mmpp", tick)
                flip = float(rng.random())
                if surge:
                    surge = flip >= spec.mmpp_exit_surge
                else:
                    surge = flip < spec.mmpp_enter_surge
                self._surge.append(surge)

    def _rng(self, *key: object) -> np.random.Generator:
        return np.random.default_rng(
            _stable_seed(self.seed, "traffic", *key)
        )

    # ------------------------------------------------------------------
    # Offered-rate shape
    # ------------------------------------------------------------------
    def intensity(self, tick: int) -> float:
        """The modulated arrival intensity (tenants/tick) at a tick."""
        spec = self.spec
        rate = spec.arrivals_per_tick * spec.load_multiplier
        if spec.diurnal_amplitude > 0.0:
            phase = 2.0 * math.pi * tick / spec.diurnal_period_ticks
            rate *= 1.0 + spec.diurnal_amplitude * math.sin(phase)
        for burst in spec.bursts:
            if burst.active_at(tick):
                rate *= burst.multiplier
        if spec.arrival_process == MMPP and self._surge[tick]:
            rate *= spec.mmpp_surge_factor
        return rate

    # ------------------------------------------------------------------
    # Arrival stream
    # ------------------------------------------------------------------
    def _session_windows(self, rng: np.random.Generator) -> int:
        """Bounded-Pareto session length, in execution windows."""
        spec = self.spec
        u = float(rng.random())
        # Inverse-CDF of a Pareto with scale w_min, truncated above.
        u = min(u, 1.0 - 1e-12)
        raw = spec.session_windows_min / (
            (1.0 - u) ** (1.0 / spec.session_alpha)
        )
        return max(spec.session_windows_min,
                   min(spec.session_windows_max, int(raw)))

    def _pick_tier(self, rng: np.random.Generator) -> TierSpec:
        tiers = self.spec.tiers
        total = sum(tier.weight for tier in tiers)
        point = float(rng.random()) * total
        cumulative = 0.0
        for tier in tiers:
            cumulative += tier.weight
            if point < cumulative:
                return tier
        return tiers[-1]

    def arrivals_at(self, tick: int, first_index: int) -> List[ArrivalEvent]:
        """The arrivals landing at one tick.

        ``first_index`` is the global index of the first arrival at
        this tick (the caller threads it through), which keys each
        arrival's attribute stream - so the attributes of arrival #17
        are identical whether it lands alone or in a burst.
        """
        if not 0 <= tick < self.spec.ticks:
            raise TrafficError(
                f"tick {tick} outside the spec horizon "
                f"[0, {self.spec.ticks})"
            )
        count = int(self._rng("arrivals", tick).poisson(
            self.intensity(tick)
        ))
        events: List[ArrivalEvent] = []
        for offset in range(count):
            index = first_index + offset
            rng = self._rng("arrival", index)
            tier = self._pick_tier(rng)
            windows = self._session_windows(rng)
            app_slot = int(rng.integers(self.spec.app_pool_size))
            app_kind = APP_KINDS[app_slot % len(APP_KINDS)]
            events.append(ArrivalEvent(
                tick=tick,
                name=f"user-{index:05d}",
                tier=tier.name,
                priority=tier.priority,
                windows=windows,
                window_tasks=tier.window_tasks,
                app_kind=app_kind,
                app_seed=self.seed + app_slot,
            ))
        return events

    def events(self) -> List[ArrivalEvent]:
        """The full arrival stream over the spec horizon."""
        out: List[ArrivalEvent] = []
        for tick in range(self.spec.ticks):
            out.extend(self.arrivals_at(tick, first_index=len(out)))
        return out

    def offered_windows(self) -> int:
        """Total execution windows the stream offers (demand, not
        what the fleet manages to serve)."""
        return sum(event.windows for event in self.events())
