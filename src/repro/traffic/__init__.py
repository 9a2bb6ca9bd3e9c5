"""repro.traffic - open-loop workload generation, trace replay, and
overload-driven SLO evaluation.

The scripted soaks (serve, fleet) submit exactly what the system can
absorb; production fleets do not get that courtesy.  This package
offers load the fleet cannot refuse to receive: a seeded open-loop
generator (tenant churn, tiered priority mix, heavy-tailed sessions,
diurnal + burst rate shapes) whose arrival stream is a pure function
of (spec, seed); a checksummed trace format so a workload can be
frozen and replayed byte-identically; an open-loop driver that feeds
either into :class:`~repro.fleet.router.FleetRouter`'s ``step`` tick
by tick; and an SLO evaluation layer that turns the served windows
into per-tier attainment, goodput-vs-offered-load, and burst-recovery
numbers in a byte-deterministic :class:`~repro.traffic.slo.
TrafficReport`.
"""

from repro.traffic.driver import (
    OpenLoopDriver,
    TrafficRunResult,
    materialize,
)
from repro.traffic.generator import (
    ArrivalEvent,
    TrafficGenerator,
)
from repro.traffic.scenario import (
    CURVE_MULTIPLIERS,
    FleetOverloadScenario,
    FleetSoakScenario,
    OVERLOAD_TIERS,
    SoakScenario,
)
from repro.traffic.slo import (
    BurstRecovery,
    TierSummary,
    TrafficReport,
    evaluate,
)
from repro.traffic.spec import (
    DEFAULT_TIERS,
    BurstSpec,
    TierSpec,
    TrafficSpec,
)
from repro.traffic.trace import TRACE_KIND, TrafficTrace

__all__ = [
    "ArrivalEvent",
    "CURVE_MULTIPLIERS",
    "BurstRecovery",
    "BurstSpec",
    "DEFAULT_TIERS",
    "FleetOverloadScenario",
    "FleetSoakScenario",
    "OVERLOAD_TIERS",
    "OpenLoopDriver",
    "SoakScenario",
    "TRACE_KIND",
    "TierSpec",
    "TierSummary",
    "TrafficGenerator",
    "TrafficReport",
    "TrafficRunResult",
    "TrafficSpec",
    "TrafficTrace",
    "evaluate",
    "materialize",
]
