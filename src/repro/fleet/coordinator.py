"""Failover: drain a failed shard, re-admit its tenants fleet-wide.

Triggered by the router when the health monitor declares a shard dead
(crash or gray failure) or when a sustained SLO breach makes a live
shard not worth staying on.  The coordinator

1. **evacuates** every live tenant of the shard (withdrawing them from
   a still-live server, or simply adopting their fleet-side state when
   the server crashed under them), then
2. **relocates** the displaced batch onto surviving shards through the
   regular admission path (:meth:`FleetRouter.choose_shard` prices,
   :meth:`PipelineServer.admit` deploys - the same
   ``AdmissionController`` + ``PlacementMap`` as any placement),
   highest priority first.

Relocation of a batch is *atomic*: if any tenant of the batch cannot
be placed, every placement made for the batch in that attempt is
rescinded (:meth:`PipelineServer.rescind` releases the partition and
erases the record), the lowest-priority tenant is shed, and the
smaller batch is retried.  Either a whole batch lands or the fleet
sheds, deterministically, in priority order - there is no state where
half a failover happened.
"""

from __future__ import annotations

from typing import List, Tuple

from repro.serve.tenant import PENDING
from repro.fleet.tenant import SHED, FleetTenant


class FailoverCoordinator:
    """Drains dying shards and re-places their tenants (or sheds)."""

    def __init__(self, router) -> None:
        # The router owns shards, tenants, and the event spine; the
        # coordinator is its failover strategy, split out for testing.
        self.router = router
        self.failovers = 0

    # ------------------------------------------------------------------
    def evacuate(self, shard, tick: int, cause: str) -> List[FleetTenant]:
        """Pull every live tenant off ``shard``; returns the displaced
        batch, highest priority first (ties: earliest arrival)."""
        displaced: List[FleetTenant] = []
        for tenant in self.router.tenants_on(shard.name):
            if shard.alive:
                shard.server.withdraw(
                    tenant.name,
                    f"fleet failover: {cause}",
                    tick,
                )
            self.router.monitor.forget_tenant(shard.name, tenant.name)
            tenant.shard = None
            tenant.status = PENDING
            tenant.status_detail = f"displaced by failover: {cause}"
            displaced.append(tenant)
        displaced.sort(key=lambda t: (-t.priority, t.arrival))
        return displaced

    def relocate(self, displaced: List[FleetTenant], tick: int,
                 cause: str) -> Tuple[List[FleetTenant], List[FleetTenant]]:
        """Atomically place a displaced batch; returns (placed, shed).

        All-or-nothing per attempt: a partial placement is rolled back
        before the lowest-priority tenant is shed and the rest retried.
        """
        batch = sorted(displaced, key=lambda t: (-t.priority, t.arrival))
        shed: List[FleetTenant] = []
        while batch:
            placed_now: List[Tuple[FleetTenant, object]] = []
            stuck = None
            for tenant in batch:
                choice = self.router.choose_shard(tenant.pending_spec())
                if choice is None:
                    stuck = tenant
                    break
                shard, decision = choice
                shard.server.admit(tenant.pending_spec(), tick, decision)
                placed_now.append((tenant, shard))
            if stuck is None:
                for tenant, shard in placed_now:
                    self.router.commit_placement(
                        tenant, shard, tick, kind="migrate",
                        detail=f"failover: {cause}",
                    )
                return [t for t, _ in placed_now], shed
            # Atomic rollback: undo this attempt's placements entirely.
            for tenant, shard in placed_now:
                shard.server.rescind(tenant.name)
            # Priority-ordered shedding: the lowest priority goes
            # (ties: latest arrival), then the smaller batch retries.
            victim = min(batch, key=lambda t: (t.priority, -t.arrival))
            batch.remove(victim)
            victim.status = SHED
            victim.status_detail = (
                f"shed at tick {tick}: fleet could not absorb the "
                f"failover batch ({cause})"
            )
            shed.append(victim)
            self.router.record_shed(victim, tick, cause)
        return [], shed

    def failover(self, shard, tick: int, cause: str) -> None:
        """Evacuate + relocate one shard; the router's entry point."""
        displaced = self.evacuate(shard, tick, cause)
        if not displaced:
            return
        self.failovers += 1
        self.router.record_failover(shard, tick, cause, len(displaced))
        self.relocate(displaced, tick, cause)
