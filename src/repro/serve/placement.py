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

The map also says *when* the placement changed: ``epoch`` is bumped in
exactly two places, :meth:`~PlacementMap.assign` and
:meth:`~PlacementMap.release`, which every admission, completion,
eviction, failure, withdrawal, rollback and live reschedule crosses.
Whatever is derived from a placement (an admission verdict, a tenant's
co-load, the fleet's shard choice) is kept in an :class:`EpochMemo`
under the epoch it was derived at; no caller invalidates anything.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, Hashable, Iterable, Optional, Tuple

from repro.core.schedule import Schedule, validate_schedule
from repro.errors import ServeError
from repro.stage import Application


class EpochMemo:
    """Facts derived from a placement, kept exactly as long as it lasts.

    One table under one *stamp* - the observed state its entries were
    derived from: a placement epoch, an epoch plus the active drifts,
    or every shard's (generation, epoch, breaker gate).  A look-up under
    another stamp finds nothing and the next store drops the table
    whole: no entry outlives its placement, and the table is bounded by
    what one placement can be asked.
    """

    __slots__ = ("_stamp", "_table")

    def __init__(self) -> None:
        self._stamp: object = None
        self._table: Dict[Hashable, object] = {}

    def lookup(self, stamp: object, key: Hashable) -> Optional[object]:
        """What was stored for ``key`` under ``stamp``, else None."""
        return self._table.get(key) if stamp == self._stamp else None

    def store(self, stamp: object, key: Hashable, value: object) -> None:
        """Keep ``value`` for ``key`` for as long as ``stamp`` holds."""
        if stamp != self._stamp:
            self._stamp, self._table = stamp, {}
        self._table[key] = value


class PlacementMap:
    """Tenant -> PU-class partition bookkeeping for one virtual SoC."""

    def __init__(self, schedulable_classes: Iterable[str]):
        self._schedulable = frozenset(schedulable_classes)
        if not self._schedulable:
            raise ServeError("platform has no schedulable PU classes")
        self._partitions: Dict[str, FrozenSet[str]] = {}
        self._free = self._schedulable
        #: Partition changes so far: monotone, bumped by :meth:`assign`
        #: and :meth:`release` and nowhere else.
        self.epoch = 0

    # ------------------------------------------------------------------
    @property
    def partitions(self) -> Dict[str, FrozenSet[str]]:
        return dict(self._partitions)

    def partition_of(self, tenant: str) -> FrozenSet[str]:
        """The PU classes ``tenant`` holds; an unplaced tenant is a
        ServeError."""
        try:
            return self._partitions[tenant]
        except KeyError:
            raise ServeError(
                f"tenant {tenant!r} holds no placement"
            ) from None

    def __len__(self) -> int:
        """How many tenants hold a placement."""
        return len(self._partitions)

    def free_classes(self) -> FrozenSet[str]:
        """Schedulable PU classes no tenant currently owns."""
        return self._free

    # ------------------------------------------------------------------
    def assign(
        self,
        tenant: str,
        application: Application,
        schedule: Schedule,
    ) -> Tuple[str, ...]:
        """Grant ``tenant`` the PU classes its schedule uses, sorted.

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
        taken = wanted - self._free
        if taken:
            raise ServeError(
                f"admitting tenant {tenant!r} would oversubscribe PU "
                f"classes {sorted(taken)} already held by another "
                "tenant"
            )
        validate_schedule(schedule, application, available_pus=wanted)
        self._partitions[tenant] = wanted
        self._free -= wanted
        self.epoch += 1
        self.check()
        return tuple(sorted(wanted))

    def reassign(
        self,
        tenant: str,
        application: Application,
        schedule: Schedule,
    ) -> Tuple[str, ...]:
        """Atomically replace a tenant's partition (live reschedule):
        a :meth:`release` and an :meth:`assign`, or nothing."""
        previous = self.partition_of(tenant)
        self.release(tenant)
        try:
            return self.assign(tenant, application, schedule)
        except ServeError:
            # The grant it held before; nothing was priced in between.
            self._partitions[tenant] = previous
            self._free -= previous
            raise

    def release(self, tenant: str) -> None:
        """Free a tenant's PUs (completion or eviction)."""
        self._free |= self.partition_of(tenant)
        del self._partitions[tenant]
        self.epoch += 1

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
