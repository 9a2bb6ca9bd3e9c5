"""BetterTogether core: profiler, optimizer, autotuner, the end-to-end
framework driver (paper section 3) and its adaptive deployment.

The stage model (:class:`Application`, :class:`Stage`, ...) lives in
:mod:`repro.stage`, below the runtime, and is re-exported here."""

from repro.core.adaptive import AdaptivePipeline, WindowRecord
from repro.core.autotuner import Autotuner, AutotuneEntry, AutotuneResult
from repro.core.deployment import (
    RateConstrainedChoice,
    RateTrial,
    select_for_rate,
)
from repro.core.framework import BetterTogether, DeploymentPlan
from repro.core.optimizer import (
    BTOptimizer,
    OptimizationResult,
    ScheduleCandidate,
)
from repro.core.plan_cache import (
    CachedPlan,
    Deployment,
    PlanCache,
    tenant_offered_load,
    with_packing_candidates,
)
from repro.core.profiler import (
    INTERFERENCE,
    ISOLATED,
    BTProfiler,
    ProfilingTable,
    interference_ratios,
)
from repro.core.schedule import (
    Schedule,
    validate_schedule,
)
from repro.core.session import CampaignSession, SessionReport
from repro.stage import Application, Chunk, Stage, TaskGraph

__all__ = [
    "AdaptivePipeline",
    "Application",
    "Autotuner",
    "AutotuneEntry",
    "AutotuneResult",
    "BTOptimizer",
    "BTProfiler",
    "BetterTogether",
    "CachedPlan",
    "CampaignSession",
    "Chunk",
    "Deployment",
    "DeploymentPlan",
    "INTERFERENCE",
    "ISOLATED",
    "OptimizationResult",
    "PlanCache",
    "ProfilingTable",
    "RateConstrainedChoice",
    "RateTrial",
    "Schedule",
    "ScheduleCandidate",
    "SessionReport",
    "Stage",
    "TaskGraph",
    "interference_ratios",
    "select_for_rate",
    "tenant_offered_load",
    "WindowRecord",
    "validate_schedule",
    "with_packing_candidates",
]
