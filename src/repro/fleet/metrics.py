"""Deterministic fleet metrics and the final fleet report.

Pure arithmetic over the router's recorded state - no wall clock, no
RNG reads - so a fleet run's report is byte-identical across repeats
with the same seed (the property the fleet soak test and the golden
corpus assert on serialized reports).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import partial
from operator import attrgetter
from typing import Callable, Dict, List, Mapping, Optional, Sequence

from repro.serve.metrics import (
    Distribution,
    per_task,
    percentile,
    rendered,
)
from repro.serve.tenant import COMPLETED
from repro.fleet.tenant import FleetTenant


def _latencies(tenant: FleetTenant) -> List[float]:
    """The tenant's per-task latency population, as the shard
    timelines stated each window (9 decimals)."""
    return per_task(tenant.windows, attrgetter("latency_s"))


@dataclass(frozen=True)
class FleetTenantMetrics:
    """Latency + lifecycle summary of one fleet tenant."""

    tenant: str
    status: str
    windows_served: int
    reschedules: int
    #: Per-task latencies of the served windows.
    latency: Distribution = field(compare=False, repr=False)
    migrations: int
    shards: Sequence[str]

    @classmethod
    def from_tenant(cls, tenant: FleetTenant) -> "FleetTenantMetrics":
        return cls(
            tenant=tenant.name,
            status=tenant.status,
            windows_served=tenant.windows_served,
            reschedules=tenant.reschedules,
            latency=Distribution(partial(_latencies, tenant)),
            migrations=tenant.migrations,
            shards=tuple(tenant.shard_history),
        )

    @property
    def mean_latency_s(self) -> float:
        return self.latency.mean

    @property
    def p50_latency_s(self) -> float:
        return self.latency.percentile(50.0)

    @property
    def p95_latency_s(self) -> float:
        return self.latency.percentile(95.0)

    @property
    def max_latency_s(self) -> float:
        return self.latency.max

    def to_dict(self) -> Dict[str, object]:
        """The tenant's metrics as a JSON-ready report row."""
        return {
            "tenant": self.tenant,
            "status": self.status,
            "windows_served": self.windows_served,
            "migrations": self.migrations,
            "reschedules": self.reschedules,
            "shards": list(self.shards),
            **{key: rendered(getattr(self, key), self.windows_served)
               for key in ("mean_latency_s", "p50_latency_s",
                           "p95_latency_s", "max_latency_s")},
        }


def _surviving_p95(
    tenants: Mapping[str, FleetTenant],
    population: Callable[[FleetTenant], List[float]],
) -> float:
    samples: List[float] = []
    for tenant in tenants.values():
        if tenant.status == COMPLETED:
            samples.extend(population(tenant))
    return percentile(samples, 95.0) if samples else 0.0


def surviving_p95(tenants: Mapping[str, FleetTenant]) -> float:
    """p95 over the merged per-item samples of tenants that *survived*
    the run (completed every window).  0.0 when nothing survived."""
    return _surviving_p95(tenants, _latencies)


def surviving_p95_slowdown(tenants: Mapping[str, FleetTenant]) -> float:
    """p95 of surviving tenants' per-segment slowdown ratios - the
    fleet's headline number.

    Absolute latency mixes what the fleet controls (failure response)
    with what it does not (app heterogeneity, the PU class each
    placement drew), so the headline normalizes every sample to its
    placement segment's first-window baseline
    (:meth:`FleetTenant.slowdowns`).  A fleet that leaves tenants on a
    browned-out shard shows up here directly; one that migrates them
    promptly stays near 1.0.  0.0 when nothing survived.
    """
    return _surviving_p95(tenants, FleetTenant.slowdowns)


@dataclass(frozen=True)
class FleetReport:
    """The serialized outcome of one fleet run."""

    seed: int
    ticks: int
    n_shards: int
    failover_enabled: bool
    tenants: Mapping[str, FleetTenantMetrics]
    #: shard -> {state, breaker, generation, windows_served}
    shards: Mapping[str, Mapping[str, object]]
    timeline: Sequence[Mapping[str, object]]
    chaos_events: Sequence[Mapping[str, object]]
    surviving_p95_s: float
    surviving_p95_slowdown: float
    plan_cache: Mapping[str, int]
    #: Blame-decomposition summary (``FleetConfig.attribution``); None
    #: - and absent from the serialized form - when attribution is off.
    attribution: Optional[Mapping[str, object]] = None

    @property
    def counts(self) -> Dict[str, int]:
        """Fleet event kind -> occurrences (failovers, migrations,
        shed, breaker transitions, ...)."""
        out: Dict[str, int] = {}
        for entry in self.timeline:
            kind = str(entry["event"])
            out[kind] = out.get(kind, 0) + 1
        return out

    def to_dict(self) -> Dict[str, object]:
        """Stable dict for :func:`repro.core.serialization.write_json_report`.

        Every mapping is emitted in sorted key order so two runs with
        the same seed serialize byte-identically.
        """
        survivors = [m for m in self.tenants.values()
                     if m.status == "completed"]
        out: Dict[str, object] = {
            "seed": self.seed,
            "ticks": self.ticks,
            "n_shards": self.n_shards,
            "failover_enabled": self.failover_enabled,
            "counts": {k: self.counts[k] for k in sorted(self.counts)},
            "surviving_tenants": len(survivors),
            "surviving_p95_s": rendered(self.surviving_p95_s,
                                        len(survivors)),
            "surviving_p95_slowdown": rendered(
                self.surviving_p95_slowdown, len(survivors)),
            "tenants": {
                name: self.tenants[name].to_dict()
                for name in sorted(self.tenants)
            },
            "shards": {
                name: dict(self.shards[name])
                for name in sorted(self.shards)
            },
            "timeline": list(self.timeline),
            "chaos_events": list(self.chaos_events),
            "plan_cache": {key: value for key, value
                           in self.plan_cache.items() if key != "hits"},
        }
        if self.attribution is not None:
            out["attribution"] = dict(self.attribution)
        return out
