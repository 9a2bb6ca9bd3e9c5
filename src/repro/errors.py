"""Exception hierarchy for the BetterTogether reproduction.

All library errors derive from :class:`ReproError` so callers can catch a
single base class at the API boundary.  Subpackages raise the most specific
subclass that applies.
"""

from __future__ import annotations

from typing import Any, Dict, Sequence


class ReproError(Exception):
    """Base class for every error raised by this library."""

    def payload(self) -> Dict[str, Any]:
        """Structured error envelope for CLI / JSON consumers.

        Every ``repro`` subcommand prints this one-line object to
        stderr and exits 2 on error, so drivers distinguish *tool
        failure* (2) from *findings under --strict* (1) without
        scraping tracebacks.
        """
        return {"error": type(self).__name__, "message": str(self)}


class SolverError(ReproError):
    """Base class for constraint-solver errors."""


class SolverTimeoutError(SolverError):
    """Raised when the solver exhausts its node or time budget.

    ``incumbents`` carries what an interrupted ``Solver.minimize`` had
    found so far - ``(solution, value)`` pairs, best first - and is
    empty for every other source of the error.
    """

    incumbents: Sequence[Any] = ()


class ModellingError(SolverError):
    """Raised for ill-formed constraint models (e.g. unknown variables)."""


class PlatformError(ReproError):
    """Raised for invalid platform specifications or unknown platforms."""


class CampaignError(ReproError):
    """Raised when a checkpointed campaign session cannot proceed
    (mismatched manifest, incompatible resume parameters...)."""


class KernelError(ReproError):
    """Raised when a compute kernel is misused (bad shapes, backends...)."""


class SchedulingError(ReproError):
    """Raised when a schedule is malformed or cannot be constructed."""


class ScheduleValidationError(SchedulingError):
    """A schedule violates one of the model constraints (C1, C2, C3a,
    C3b) or references an unavailable PU class.

    ``constraint`` names the violated rule (``"C1"``, ``"C2"``,
    ``"C3a"``, ``"C3b"`` or ``"availability"``) so callers - and tests -
    can tell the failure modes apart without parsing the message.
    """

    def __init__(self, constraint: str, message: str):
        super().__init__(f"[{constraint}] {message}")
        self.constraint = constraint


class ProfilingError(ReproError):
    """Raised when profiling inputs are inconsistent."""


class ServeError(ReproError):
    """Raised by the online serving layer (:mod:`repro.serve`) for
    invalid tenant specs, placement invariant violations (cross-tenant
    PU oversubscription), and misuse of the server lifecycle."""


class FleetError(ReproError):
    """Raised by the fleet layer (:mod:`repro.fleet`) for invalid
    chaos schedules, shard lifecycle misuse, and fleet configuration
    errors."""


class TrafficError(ReproError):
    """Raised by the workload layer (:mod:`repro.traffic`) for invalid
    traffic specs, malformed traces, and open-loop driver misuse."""


class AnalysisError(ReproError):
    """Raised when the correctness tooling (``repro lint`` /
    ``repro race``) is misused: missing lint targets, unparseable
    sources, unknown rule ids."""


class PipelineError(ReproError):
    """Raised by the runtime when pipeline execution fails."""


class QueueClosedError(PipelineError):
    """Raised when pushing to / popping from a closed SPSC queue."""


class TransientKernelFault(PipelineError):
    """A kernel dispatch failed in a way that may succeed on retry.

    Raised by the fault-injection layer (and usable by real kernels) to
    mark a failure as retryable; the runtime's retry policy only ever
    re-dispatches, never re-profiles.
    """


class PuFailureError(PipelineError):
    """A processing unit dropped out permanently mid-run.

    Not retryable: recovery means re-scheduling onto the surviving PUs
    (see :meth:`repro.core.adaptive.AdaptivePipeline.mark_pu_failed`).
    """

    def __init__(self, pu_class: str, message: str = ""):
        super().__init__(
            message or f"PU class {pu_class!r} failed permanently"
        )
        self.pu_class = pu_class
