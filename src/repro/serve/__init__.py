"""repro.serve: online multi-tenant serving on one virtual SoC.

The offline flow (profile -> optimize -> autotune -> deploy) freezes
one schedule per pipeline.  This package keeps the loop closed at
serve time: an interference-aware admission controller decides who may
share the SoC, a placement map partitions the PU classes across
admitted tenants (no oversubscription, ever), and an online
rescheduler watches measured window latencies for drift and re-ranks
each tenant's cached candidates under the load actually present -
falling back to evicting the lowest-priority tenant when nothing fits.
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
from repro.serve.scenario import SoakScenario
from repro.serve.server import (
    DriftSpec,
    PipelineServer,
    ServerConfig,
)
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
    "DriftSpec",
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
    "ServerConfig",
    "SoakScenario",
    "TERMINAL_STATES",
    "TenantRecord",
    "TenantSpec",
    "WindowSample",
    "attainment",
    "percentile",
    "tenant_offered_load",
]
