"""repro.fleet: fleet-scale serving with failure domains.

Scales :mod:`repro.serve` out to N virtual SoC shards behind one
interference-aware router, and makes the failure domain explicit: SoCs
crash, go gray, and brown out under seeded chaos; health is judged on
the fleet's logical tick clock; placement is gated by per-shard circuit
breakers; and failover atomically re-places a dead shard's tenants on
the survivors (or sheds, in priority order).  A fleet run is a pure
function of (platform set, tenant specs, chaos schedule, seed) and its
report serializes byte-identically across repeats.
"""

from repro.fleet.chaos import (
    ChaosInjector,
    ChaosSchedule,
    DegradeSpec,
    GrayFailureSpec,
    ShardCrashSpec,
)
from repro.fleet.health import (
    CircuitBreaker,
    HealthConfig,
    HealthMonitor,
)
from repro.fleet.metrics import (
    FleetReport,
    FleetTenantMetrics,
    surviving_p95,
    surviving_p95_slowdown,
)
from repro.fleet.router import FleetConfig, FleetRouter
from repro.fleet.shard import ShardSpec, SoCShard
from repro.fleet.tenant import SHED, FleetTenant

__all__ = [
    "ChaosInjector",
    "ChaosSchedule",
    "CircuitBreaker",
    "DegradeSpec",
    "FleetConfig",
    "FleetReport",
    "FleetRouter",
    "FleetTenant",
    "FleetTenantMetrics",
    "GrayFailureSpec",
    "HealthConfig",
    "HealthMonitor",
    "SHED",
    "ShardCrashSpec",
    "ShardSpec",
    "SoCShard",
    "surviving_p95",
    "surviving_p95_slowdown",
]
