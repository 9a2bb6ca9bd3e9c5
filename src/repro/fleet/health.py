"""Shard health classification and the per-shard admission breaker.

Health is judged on the fleet's logical tick clock, never wall time:
the :class:`HealthMonitor` compares each shard's beat *count*
(:attr:`repro.fleet.shard.SoCShard.beats`) across fleet ticks, so
a shard whose loop stops beating - crash or gray failure alike - is
detected identically on any machine at any speed.  SLO breach is
likewise relative, not absolute: each (shard, tenant) pair's first
window on that shard is its baseline, and a shard breaches when the
mean latency ratio of a tick's windows exceeds ``slo_factor`` for
``slo_breach_ticks`` consecutive ticks.

Shard lifecycle::

    healthy --(missed beats >= MISS_DEGRADED, or SLO streak)--> degraded
    degraded --(missed beats >= MISS_DEAD, or crash)----------> dead
    dead --(beats resume / rejoin)----------------------------> recovering
    recovering --(breaker closes)-----------------------------> healthy

The :class:`CircuitBreaker` gates *placement* onto a shard::

    closed --(shard declared dead / SLO failover)--> open
    open --(COOLDOWN_TICKS elapsed AND beats seen)-> half-open
    half-open --(PROBE_TICKS consecutive healthy)--> closed
    half-open --(beats lost again)-----------------> open

Half-open placement is probabilistic by design - a recovering shard
takes a seeded *probe window* draw each tick, so the router trickles
tenants back instead of slamming the shard the instant it reappears.
The draw comes from the breaker's own seeded generator (one draw per
half-open tick), keeping the whole fleet run deterministic.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.errors import FleetError

#: Consecutive beatless fleet ticks that degrade a shard, and that
#: declare it dead.
MISS_DEGRADED = 2
MISS_DEAD = 4

#: Breaker timing, in fleet ticks: how long an open breaker waits
#: before probing, the chance that a half-open tick is a probe window,
#: and the healthy half-open ticks that close it again.
COOLDOWN_TICKS = 3
PROBE_PROBABILITY = 0.5
PROBE_TICKS = 3

# Shard lifecycle states.
HEALTHY = "healthy"
DEGRADED = "degraded"
DEAD = "dead"
RECOVERING = "recovering"

#: Numeric codes for the ``fleet.shard_state.<name>`` gauge.
SHARD_STATE_CODES = {HEALTHY: 0, DEGRADED: 1, RECOVERING: 2, DEAD: 3}

# Breaker states.
CLOSED = "closed"
OPEN = "open"
HALF_OPEN = "half-open"


@dataclass(frozen=True)
class HealthConfig:
    """The relative-SLO breach rule: a shard breaches after
    ``slo_breach_ticks`` consecutive ticks whose mean window-latency
    ratio exceeds ``slo_factor``."""

    slo_factor: float = 2.0
    slo_breach_ticks: int = 3

    def __post_init__(self) -> None:
        if self.slo_factor <= 1.0:
            raise FleetError("slo_factor must be > 1.0")
        if self.slo_breach_ticks < 1:
            raise FleetError("slo_breach_ticks must be >= 1")


@dataclass
class ShardHealth:
    """The monitor's view of one shard."""

    state: str = HEALTHY
    last_beats: int = 0
    missed_ticks: int = 0
    beat_seen: bool = True
    breach_streak: int = 0
    #: tenant -> first-window latency on this shard (the SLO baseline).
    baselines: Dict[str, float] = field(default_factory=dict)
    #: Latency ratios observed since the last assessment.
    _ratios: List[float] = field(default_factory=list)


class HealthMonitor:
    """Classifies shards healthy/degraded/dead from beats and windows."""

    def __init__(self, config: Optional[HealthConfig] = None):
        self.config = config or HealthConfig()
        self._shards: Dict[str, ShardHealth] = {}

    def register(self, shard: str) -> None:
        """Start tracking ``shard``'s health; a shard registers once."""
        if shard in self._shards:
            raise FleetError(f"shard {shard!r} already registered")
        self._shards[shard] = ShardHealth()

    def health(self, shard: str) -> ShardHealth:
        """``shard``'s health record; an unknown shard is a FleetError."""
        try:
            return self._shards[shard]
        except KeyError:
            raise FleetError(f"unknown shard {shard!r}")

    def state(self, shard: str) -> str:
        """``shard``'s current health state."""
        return self.health(shard).state

    def set_state(self, shard: str, state: str) -> None:
        """Externally-driven transition (rejoin -> recovering, breaker
        close -> healthy)."""
        if state not in SHARD_STATE_CODES:
            raise FleetError(f"unknown shard state {state!r}")
        self.health(shard).state = state

    # ------------------------------------------------------------------
    def note_window(self, shard: str, tenant: str,
                    latency_s: float) -> float:
        """Feed one served window; returns its ratio to the tenant's
        first-window baseline on this shard."""
        health = self.health(shard)
        baseline = health.baselines.get(tenant)
        if baseline is None:
            health.baselines[tenant] = latency_s
            ratio = 1.0
        else:
            ratio = latency_s / baseline if baseline > 0.0 else 1.0
        health._ratios.append(ratio)
        return ratio

    def forget_tenant(self, shard: str, tenant: str) -> None:
        """Drop a tenant's baseline when it leaves the shard."""
        self.health(shard).baselines.pop(tenant, None)

    def reset_slo(self, shard: str) -> None:
        """Clear the breach streak (after an SLO-breach failover drains
        the shard, there is nothing left to breach)."""
        health = self.health(shard)
        health.breach_streak = 0
        health._ratios.clear()

    def slo_breached(self, shard: str) -> bool:
        """Whether ``shard`` has breached its SLO for the configured
        number of consecutive ticks."""
        return (self.health(shard).breach_streak
                >= self.config.slo_breach_ticks)

    # ------------------------------------------------------------------
    def assess(self, shard: str, beats: int,
               crashed: bool) -> Optional[Tuple[str, str]]:
        """One per-tick assessment; returns ``(old, new)`` on a state
        change, ``None`` otherwise.

        ``beats`` is the shard's current monotonic beat count;
        ``crashed`` short-circuits straight to dead (a crash is
        directly observable, unlike a gray failure).
        """
        health = self.health(shard)
        old = health.state

        health.beat_seen = beats > health.last_beats
        health.last_beats = beats
        if health.beat_seen:
            health.missed_ticks = 0
        else:
            health.missed_ticks += 1

        ratios = health._ratios
        if ratios:
            mean_ratio = sum(ratios) / len(ratios)
            if mean_ratio > self.config.slo_factor:
                health.breach_streak += 1
            else:
                health.breach_streak = 0
            health._ratios = []
        # No windows served: the streak holds (an SLO-breached shard
        # must not launder itself healthy by serving nothing).

        if crashed:
            new = DEAD
        elif health.missed_ticks >= MISS_DEAD:
            new = DEAD
        elif old == DEAD:
            # Only an external transition (rejoin / beats resumption via
            # the breaker path) resurrects a dead shard.
            new = RECOVERING if health.beat_seen else DEAD
        elif old == RECOVERING:
            # Recovering holds until the breaker closes (set_state).
            new = RECOVERING
        elif health.missed_ticks >= MISS_DEGRADED:
            new = DEGRADED
        elif self.slo_breached(shard):
            new = DEGRADED
        else:
            new = HEALTHY

        health.state = new
        return (old, new) if new != old else None


class CircuitBreaker:
    """Per-shard admission gate: closed -> open -> half-open -> closed.

    One seeded uniform draw per half-open tick decides whether that
    tick is a probe window (placements allowed); the draw count is a
    pure function of the run, so reruns see identical probe windows.
    """

    def __init__(self, shard: str, seed: int):
        self.shard = shard
        self.state = CLOSED
        self.transitions = 0
        self._rng = np.random.default_rng(seed)
        self._opened_at: Optional[int] = None
        self._probe_ok = 0
        self._probe_window = False

    def trip(self, tick: int) -> Optional[Tuple[str, str]]:
        """Force open (shard declared dead or SLO-breach failover)."""
        if self.state == OPEN:
            return None
        old = self.state
        self.state = OPEN
        self._opened_at = tick
        self._probe_ok = 0
        self._probe_window = False
        self.transitions += 1
        return (old, OPEN)

    def advance(self, tick: int,
                beating: bool) -> Optional[Tuple[str, str]]:
        """One per-tick state-machine step; returns a transition or
        ``None``.  ``beating`` = the shard is alive and produced a beat
        this tick."""
        if self.state == OPEN:
            assert self._opened_at is not None
            if beating and tick - self._opened_at >= COOLDOWN_TICKS:
                self.state = HALF_OPEN
                self._probe_ok = 0
                self.transitions += 1
                self._draw_probe_window()
                return (OPEN, HALF_OPEN)
            return None
        if self.state == HALF_OPEN:
            if not beating:
                self.state = OPEN
                self._opened_at = tick
                self._probe_window = False
                self.transitions += 1
                return (HALF_OPEN, OPEN)
            self._probe_ok += 1
            if self._probe_ok >= PROBE_TICKS:
                self.state = CLOSED
                self._probe_window = False
                self.transitions += 1
                return (HALF_OPEN, CLOSED)
            self._draw_probe_window()
            return None
        return None

    def _draw_probe_window(self) -> None:
        self._probe_window = bool(self._rng.random() < PROBE_PROBABILITY)

    def allows_placement(self) -> bool:
        """May the router place a tenant on this shard right now?"""
        if self.state == CLOSED:
            return True
        if self.state == HALF_OPEN:
            return self._probe_window
        return False
