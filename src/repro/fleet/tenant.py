"""Fleet-level tenant state: identity that survives shard failures.

A shard's :class:`~repro.serve.tenant.TenantRecord` dies with its
server generation; the :class:`FleetTenant` is the durable identity the
router tracks across placements, migrations, failovers, and shedding.
Window progress accumulates here (a tenant that served 6 of 16 windows
before its shard crashed is re-placed with 10 remaining): the tenant
keeps the :class:`~repro.serve.tenant.WindowSample` rows its shards
wrote, and the fleet report's percentiles are derived from them.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import List, Optional

from repro.errors import FleetError
from repro.serve.tenant import (
    COMPLETED,
    FAILED,
    PENDING,
    REJECTED,
    RUNNING,
    TenantSpec,
    WindowSample,
)

#: Fleet-only terminal state: dropped by priority-ordered shedding when
#: the surviving shards could not absorb a failover batch.
SHED = "shed"

FLEET_TERMINAL_STATES = (COMPLETED, REJECTED, FAILED, SHED)


@dataclass
class FleetTenant:
    """Registry entry: the fleet-side state of one tenant."""

    spec: TenantSpec
    arrival: int
    status: str = PENDING
    status_detail: str = ""
    #: Current shard (None while pending/backlogged or terminal).
    shard: Optional[str] = None
    #: Every shard this tenant ran on, in placement order.
    shard_history: List[str] = field(default_factory=list)
    migrations: int = 0
    reschedules: int = 0
    #: Every window served, across all placements, in harvest order -
    #: the rows the shard servers wrote, not copies.
    windows: List[WindowSample] = field(default_factory=list)
    #: Tick the tenant entered the fleet backlog (for patience).
    backlog_since: Optional[int] = None

    @property
    def name(self) -> str:
        return self.spec.name

    @property
    def priority(self) -> int:
        return self.spec.priority

    @property
    def done(self) -> bool:
        return self.status in FLEET_TERMINAL_STATES

    @property
    def windows_served(self) -> int:
        return len(self.windows)

    @property
    def windows_remaining(self) -> int:
        return self.spec.windows - self.windows_served

    def pending_spec(self) -> TenantSpec:
        """The spec to (re)admit with: only the unserved windows."""
        if self.windows_served == 0:
            return self.spec
        remaining = self.windows_remaining
        if remaining < 1:
            raise FleetError(
                f"tenant {self.name!r} has no windows remaining"
            )
        return replace(self.spec, windows=remaining)

    def place(self, shard: str) -> None:
        """Record the tenant running on ``shard``; a placement after the
        first counts as a migration."""
        if self.shard_history:
            self.migrations += 1
        self.shard = shard
        self.shard_history.append(shard)
        self.status = RUNNING
        self.backlog_since = None

    def slowdowns(self) -> List[float]:
        """Each per-task sample's ratio to its placement segment's
        first-window baseline (same convention as the health monitor's
        relative SLO).

        Normalizing per segment factors out *where* the tenant runs
        (app heterogeneity, the PU class a placement handed it) and
        keeps what the fleet is accountable for: how much worse than
        its own baseline each placement let the tenant get.  A
        placement is a fresh shard-side record, so a segment starts at
        every row whose ``window_index`` is 0.
        """
        out: List[float] = []
        baseline = 0.0
        for row in self.windows:
            latency = row.latency_s
            if row.window_index == 0:
                baseline = latency
            ratio = latency / baseline if baseline > 0.0 else 1.0
            out.extend([ratio] * row.window_tasks)
        return out
