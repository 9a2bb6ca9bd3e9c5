"""Tenant placement: partitioning the SoC's PUs.

The placement map is the serving layer's core invariant carrier: every
admitted tenant owns a *disjoint* set of PU classes (no two tenants
ever time-share a cluster - contention is then bounded to the DVFS and
DRAM-bandwidth coupling the interference model quantifies, exactly the
regime the profiling table was collected for).  Each assignment is
vetted twice:

* per tenant, ``validate_schedule()`` re-checks C1/C2 and PU
  availability against the tenant's partition before anything runs;
* across tenants, :meth:`PlacementMap.check` re-asserts pairwise
  disjointness after every mutation.

What a placed tenant presents to its co-tenants - the
:class:`~repro.soc.interference.ExternalLoad` of its deployed schedule -
is a fact of the deployment, not of the placement:
:func:`repro.core.plan_cache.tenant_offered_load`.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, Iterable

from repro.core.schedule import Schedule, validate_schedule
from repro.core.stage import Application
from repro.errors import ServeError


class PlacementMap:
    """Tenant -> PU-class partition bookkeeping for one virtual SoC."""

    def __init__(self, schedulable_classes: Iterable[str]):
        self._schedulable = frozenset(schedulable_classes)
        if not self._schedulable:
            raise ServeError("platform has no schedulable PU classes")
        self._partitions: Dict[str, FrozenSet[str]] = {}

    # ------------------------------------------------------------------
    @property
    def partitions(self) -> Dict[str, FrozenSet[str]]:
        return dict(self._partitions)

    def partition_of(self, tenant: str) -> FrozenSet[str]:
        try:
            return self._partitions[tenant]
        except KeyError:
            raise ServeError(
                f"tenant {tenant!r} holds no placement"
            ) from None

    def free_classes(self) -> FrozenSet[str]:
        """Schedulable PU classes no tenant currently owns."""
        held = set()
        for partition in self._partitions.values():
            held |= partition
        return self._schedulable - held

    # ------------------------------------------------------------------
    def assign(
        self,
        tenant: str,
        application: Application,
        schedule: Schedule,
    ) -> FrozenSet[str]:
        """Grant ``tenant`` the PU classes its schedule uses.

        Validates the schedule against the granted partition
        (``validate_schedule`` with ``available_pus``) and re-checks
        the cross-tenant disjointness invariant before committing.

        Raises:
            ServeError: The grant would oversubscribe a PU class
                another tenant holds, or uses an unschedulable class.
        """
        if tenant in self._partitions:
            raise ServeError(
                f"tenant {tenant!r} already holds a placement; "
                "release it before re-assigning"
            )
        wanted = frozenset(schedule.pu_classes_used)
        unschedulable = wanted - self._schedulable
        if unschedulable:
            raise ServeError(
                f"tenant {tenant!r} wants unschedulable PU classes "
                f"{sorted(unschedulable)}"
            )
        taken = wanted - self.free_classes()
        if taken:
            raise ServeError(
                f"admitting tenant {tenant!r} would oversubscribe PU "
                f"classes {sorted(taken)} already held by another "
                "tenant"
            )
        validate_schedule(schedule, application, available_pus=wanted)
        self._partitions[tenant] = wanted
        self.check()
        return wanted

    def reassign(
        self,
        tenant: str,
        application: Application,
        schedule: Schedule,
    ) -> FrozenSet[str]:
        """Atomically replace a tenant's partition (live reschedule)."""
        previous = self.partition_of(tenant)
        del self._partitions[tenant]
        try:
            return self.assign(tenant, application, schedule)
        except ServeError:
            self._partitions[tenant] = previous
            raise

    def release(self, tenant: str) -> None:
        """Free a tenant's PUs (completion or eviction)."""
        self.partition_of(tenant)
        del self._partitions[tenant]

    def check(self) -> None:
        """Re-assert the cross-tenant no-oversubscription invariant."""
        seen: Dict[str, str] = {}
        for tenant, partition in self._partitions.items():
            for pu_class in partition:
                holder = seen.get(pu_class)
                if holder is not None:
                    raise ServeError(
                        f"placement invariant violated: PU class "
                        f"{pu_class!r} held by both {holder!r} and "
                        f"{tenant!r}"
                    )
                seen[pu_class] = tenant
