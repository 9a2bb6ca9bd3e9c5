"""repro.serve: online multi-tenant serving on one virtual SoC.

The offline flow (profile -> optimize -> autotune -> deploy) freezes
one schedule per pipeline.  This package keeps the loop closed at
serve time: an interference-aware admission controller decides who may
share the SoC, a placement map partitions the PU classes across
admitted tenants (no oversubscription, ever), and an online
rescheduler watches measured window latencies for drift and re-ranks
each tenant's cached candidates under the load actually present -
falling back to evicting the lowest-priority tenant when nothing fits.

A :class:`PipelineServer` is one generation of a fleet shard
(:mod:`repro.fleet`): the shard builds it, ready to step, with the
fleet's config and the platform's plan cache, and closes it on a crash
or when the fleet drains.  Outside interference reaches it as the drifts
the fleet's chaos degradations hand over.
"""

from repro.core.plan_cache import tenant_offered_load
from repro.serve.admission import (
    ADMIT,
    QUEUE,
    REJECT,
    AdmissionController,
    AdmissionDecision,
)
from repro.serve.metrics import (
    attainment,
    percentile,
)
from repro.serve.placement import PlacementMap
from repro.serve.rescheduler import (
    EVICT,
    HOLD,
    SWITCH,
    OnlineRescheduler,
    RescheduleAction,
)
from repro.serve.server import PipelineServer
from repro.serve.tenant import (
    COMPLETED,
    EVICTED,
    FAILED,
    PENDING,
    REJECTED,
    RUNNING,
    TERMINAL_STATES,
    TenantRecord,
    TenantSpec,
    WindowSample,
)

__all__ = [
    "ADMIT",
    "AdmissionController",
    "AdmissionDecision",
    "COMPLETED",
    "EVICT",
    "EVICTED",
    "FAILED",
    "HOLD",
    "OnlineRescheduler",
    "PENDING",
    "PipelineServer",
    "PlacementMap",
    "QUEUE",
    "REJECT",
    "REJECTED",
    "RUNNING",
    "RescheduleAction",
    "SWITCH",
    "TERMINAL_STATES",
    "TenantRecord",
    "TenantSpec",
    "WindowSample",
    "attainment",
    "percentile",
    "tenant_offered_load",
]
