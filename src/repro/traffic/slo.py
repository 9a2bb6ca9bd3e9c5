"""SLO evaluation over an open-loop run: the TrafficReport.

Aggregates the run's window samples (the fleet's
:class:`~repro.serve.tenant.WindowSample` rows, joined to their
tenants' arrival events for the tier) into per-tier attainment and
slowdown percentiles, the per-tick goodput trajectory, and burst
recovery times.  Pure arithmetic over recorded samples - no wall
clock, no RNG - so a report is byte-identical across repeated seeded
runs (the property the ``traffic-soak`` CI job byte-diffs).

*Goodput* counts the window-tasks served within their tier's SLO:
a fleet that admits everything and breaches every SLO has high
throughput and near-zero goodput, which is exactly the distinction
the overload scenario's admission gate measures.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Mapping, Optional, Sequence

from repro.serve.metrics import Distribution, attainment, rendered
from repro.serve.tenant import WindowSample
from repro.traffic.driver import TrafficRunResult
from repro.traffic.spec import TrafficSpec


@dataclass(frozen=True)
class TierSummary:
    """SLO outcome of one tier's served windows."""

    tier: str
    slo_slowdown: float
    arrivals: int
    offered_windows: int
    served_windows: int
    goodput_windows: int
    goodput_tasks: int
    attainment: float
    p50_slowdown: float
    p95_slowdown: float
    p99_slowdown: float

    def to_dict(self) -> Dict[str, object]:
        """The tier's outcome as a JSON-ready report record."""
        served = self.served_windows
        return {
            "tier": self.tier,
            "slo_slowdown": self.slo_slowdown,
            "arrivals": self.arrivals,
            "offered_windows": self.offered_windows,
            "served_windows": served,
            "goodput_windows": self.goodput_windows,
            "goodput_tasks": self.goodput_tasks,
            "attainment": rendered(self.attainment, served),
            "p50_slowdown": rendered(self.p50_slowdown, served),
            "p95_slowdown": rendered(self.p95_slowdown, served),
            "p99_slowdown": rendered(self.p99_slowdown, served),
        }


@dataclass(frozen=True)
class BurstRecovery:
    """Time to drain a burst's backlog back to its pre-burst level."""

    start_tick: int
    end_tick: int
    pre_burst_backlog: int
    peak_backlog: int
    #: First tick at/after the burst end where the fleet backlog is
    #: back at (or under) the pre-burst level; None = never recovered
    #: within the horizon.
    recovered_tick: Optional[int]

    @property
    def recovery_ticks(self) -> Optional[int]:
        if self.recovered_tick is None:
            return None
        return self.recovered_tick - self.end_tick

    def to_dict(self) -> Dict[str, object]:
        """The burst's recovery as a JSON-ready report record."""
        return {
            "start_tick": self.start_tick,
            "end_tick": self.end_tick,
            "pre_burst_backlog": self.pre_burst_backlog,
            "peak_backlog": self.peak_backlog,
            "recovered_tick": (self.recovered_tick
                               if self.recovered_tick is not None
                               else "n/a"),
            "recovery_ticks": (self.recovery_ticks
                               if self.recovery_ticks is not None
                               else "n/a"),
        }


@dataclass(frozen=True)
class TrafficReport:
    """The serialized outcome of one open-loop traffic run."""

    seed: int
    ticks: int
    n_shards: int
    spec: Mapping[str, object]
    arrivals: int
    offered_windows: int
    served_windows: int
    goodput_windows: int
    goodput_tasks: int
    admitted: int
    rejected: int
    completed: int
    tiers: Mapping[str, TierSummary]
    recoveries: Sequence[BurstRecovery]
    per_tick: Sequence[Mapping[str, object]]
    #: Blame-decomposition summary lifted from the fleet report
    #: (``FleetConfig.attribution``); None - and absent from the
    #: serialized form - when attribution was off for the run.
    attribution: Optional[Mapping[str, object]] = None
    #: Per-tier burn-rate alerts in firing order; None when no burn
    #: rule was armed.
    alerts: Optional[Sequence[Mapping[str, object]]] = None

    def to_dict(self) -> Dict[str, object]:
        """Stable dict for :func:`repro.core.serialization.write_json_report`
        (sorted tier order, rounded ratios - byte-identical across
        repeated seeded runs)."""
        out: Dict[str, object] = {
            "seed": self.seed,
            "ticks": self.ticks,
            "n_shards": self.n_shards,
            "spec": dict(self.spec),
            "arrivals": self.arrivals,
            "offered_windows": self.offered_windows,
            "served_windows": self.served_windows,
            "goodput_windows": self.goodput_windows,
            "goodput_tasks": self.goodput_tasks,
            "admitted": self.admitted,
            "rejected": self.rejected,
            "completed": self.completed,
            "tiers": {
                name: self.tiers[name].to_dict()
                for name in sorted(self.tiers)
            },
            "recoveries": [r.to_dict() for r in self.recoveries],
            "per_tick": [dict(entry) for entry in self.per_tick],
        }
        if self.attribution is not None:
            out["attribution"] = dict(self.attribution)
        if self.alerts is not None:
            out["alerts"] = [dict(alert) for alert in self.alerts]
        return out


def _tier_summary(tier_name: str, slo: float,
                  arrivals: int, offered_windows: int,
                  samples: List[WindowSample],
                  window_tasks: int) -> TierSummary:
    good = sum(1 for sample in samples if sample.attains(slo))
    slowdowns = Distribution(lambda: [s.slowdown for s in samples])
    return TierSummary(
        tier=tier_name,
        slo_slowdown=slo,
        arrivals=arrivals,
        offered_windows=offered_windows,
        served_windows=len(samples),
        goodput_windows=good,
        goodput_tasks=good * window_tasks,
        attainment=attainment(samples, slo) if samples else 0.0,
        p50_slowdown=slowdowns.percentile(50.0),
        p95_slowdown=slowdowns.percentile(95.0),
        p99_slowdown=slowdowns.percentile(99.0),
    )


def _recoveries(spec: TrafficSpec,
                per_tick: Sequence[Mapping[str, object]],
                ) -> List[BurstRecovery]:
    backlog = [int(entry["backlog"]) for entry in per_tick]
    out: List[BurstRecovery] = []
    for burst in spec.bursts:
        if burst.start_tick >= len(backlog):
            continue
        pre = (backlog[burst.start_tick - 1]
               if burst.start_tick > 0 else 0)
        end = min(burst.end_tick, len(backlog))
        peak = max(backlog[burst.start_tick:end], default=pre)
        recovered: Optional[int] = None
        for tick in range(end, len(backlog)):
            if backlog[tick] <= pre:
                recovered = tick
                break
        out.append(BurstRecovery(
            start_tick=burst.start_tick,
            end_tick=burst.end_tick,
            pre_burst_backlog=pre,
            peak_backlog=peak,
            recovered_tick=recovered,
        ))
    return out


def evaluate(spec: TrafficSpec, seed: int,
             result: TrafficRunResult) -> TrafficReport:
    """Aggregate one driver run into its TrafficReport."""
    report = result.fleet_report
    by_tier: Dict[str, List[WindowSample]] = {
        tier.name: [] for tier in spec.tiers
    }
    for sample in result.samples:
        by_tier[result.arrivals[sample.tenant].tier].append(sample)

    tiers: Dict[str, TierSummary] = {}
    for tier in spec.tiers:
        tier_arrivals = [a for a in result.arrivals.values()
                         if a.tier == tier.name]
        tiers[tier.name] = _tier_summary(
            tier.name, tier.slo_slowdown,
            arrivals=len(tier_arrivals),
            offered_windows=sum(a.windows for a in tier_arrivals),
            samples=by_tier[tier.name],
            window_tasks=tier.window_tasks,
        )

    statuses = [m.status for m in report.tenants.values()]
    alerts = None
    if result.burn_alerts is not None:
        alerts = [alert.to_dict() for alert in result.burn_alerts]
    return TrafficReport(
        seed=seed,
        ticks=result.ticks,
        n_shards=report.n_shards,
        spec=spec.to_dict(),
        arrivals=len(result.arrivals),
        offered_windows=sum(a.windows
                            for a in result.arrivals.values()),
        served_windows=sum(t.served_windows for t in tiers.values()),
        goodput_windows=sum(t.goodput_windows
                            for t in tiers.values()),
        goodput_tasks=sum(t.goodput_tasks for t in tiers.values()),
        admitted=sum(1 for m in report.tenants.values()
                     if m.windows_served > 0),
        rejected=statuses.count("rejected"),
        completed=statuses.count("completed"),
        tiers=tiers,
        recoveries=_recoveries(spec, result.per_tick),
        per_tick=list(result.per_tick),
        attribution=report.attribution,
        alerts=alerts,
    )
