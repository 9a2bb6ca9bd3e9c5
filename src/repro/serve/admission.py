"""Interference-aware admission control.

Admission answers one question before any tenant touches the SoC:
*if this job starts now, what happens to everyone's latency?*  The
prediction reuses the paper's profiling artifacts rather than a new
model: every tenant's plan carries both the isolated and the
interference-heavy profiling table, so the latency of any schedule is
known at both ends of the contention spectrum.  A measurement - or a
hypothetical co-tenant - is placed *between* those ends by the
fraction of the SoC's other PUs it keeps busy.

Three outcomes:

* ``ADMIT``  - a cached candidate fits entirely inside the free PU
  classes, and the predicted slowdown it inflicts on every running
  tenant stays under the impact ceiling;
* ``QUEUE``  - the job is serveable in principle but not now (its PUs
  are held, or it would hurt co-tenants too much); whether it waits is
  the fleet router's call (its backlog is the one wait queue);
* ``REJECT`` - the job can never be served here (it needs unschedulable
  or uncoverable PU classes).

:meth:`AdmissionController.evaluate` is one real pricing, and the
boundary instruments wrap; *whether* to price is decided in front of it
(:meth:`repro.serve.server.PipelineServer.price` reads a verdict it
holds for the placement's epoch).  What a pricing needs of the
placement alone is derived once per epoch, not once per call.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, FrozenSet, List, Mapping, Optional, Tuple

from repro.core.optimizer import ScheduleCandidate
from repro.core.plan_cache import PlanCache
from repro.errors import ServeError
from repro.serve.placement import EpochMemo, PlacementMap
from repro.serve.tenant import TenantRecord, TenantSpec
from repro.soc.platform import Platform

ADMIT = "admit"
QUEUE = "queue"
REJECT = "reject"


@dataclass(frozen=True)
class AdmissionDecision:
    """The controller's verdict on one submission."""

    action: str
    reason: str
    candidate: Optional[ScheduleCandidate] = None
    #: Modelled per-task latency of the chosen candidate given how
    #: loaded the SoC is right now (isolated..interference blend).
    predicted_latency_s: float = 0.0
    #: Running tenant -> predicted slowdown ratio if this job starts.
    predicted_impact: Mapping[str, float] = field(default_factory=dict)


class AdmissionController:
    """Decide admit/queue/reject from the shared profiling artifacts.

    Args:
        platform: The shared virtual SoC.
        plan_cache: Source of per-application tables and candidates.
        max_impact_ratio: Ceiling on the predicted slowdown admission
            may inflict on any running tenant (e.g. 1.35 = +35%).
        max_partition_classes: Optional cap on how many PU classes one
            tenant may own - the multi-tenant fairness knob that keeps
            a single job from claiming the whole SoC.
        cumulative_impact: When True, the impact ceiling prices each
            incumbent's *total* predicted slowdown once the newcomer
            lands - PU classes already busied by other co-tenants
            count, not just the newcomer's increment.  Successive
            admissions therefore accumulate toward the ceiling, which
            bounds the worst-case slowdown any incumbent can ever be
            packed into.  The default (False) prices only the
            newcomer's own increment, the historical behaviour.
    """

    def __init__(
        self,
        platform: Platform,
        plan_cache: PlanCache,
        max_impact_ratio: float = 1.35,
        max_partition_classes: Optional[int] = None,
        cumulative_impact: bool = False,
    ):
        if max_impact_ratio < 1.0:
            raise ServeError("max_impact_ratio must be >= 1.0")
        if max_partition_classes is not None and max_partition_classes < 1:
            raise ServeError("max_partition_classes must be >= 1")
        self.platform = platform
        self.plan_cache = plan_cache
        self.max_impact_ratio = max_impact_ratio
        self.max_partition_classes = max_partition_classes
        self.cumulative_impact = cumulative_impact
        self._schedulable = frozenset(platform.schedulable_classes())
        self._rows = EpochMemo()  # see _incumbent_rows

    # ------------------------------------------------------------------
    def evaluate(
        self,
        spec: TenantSpec,
        placement: PlacementMap,
        running: Mapping[str, TenantRecord],
    ) -> AdmissionDecision:
        """Evaluate one submission against the current placement;
        ``running`` is the records of the tenants ``placement`` holds."""
        plan = self.plan_cache.plan_for(spec.application)

        required = spec.required_classes
        unservable = required - self._schedulable
        if unservable:
            return AdmissionDecision(
                REJECT,
                f"required PU classes {sorted(unservable)} are not "
                "schedulable on this platform",
            )
        cap = self.max_partition_classes
        if cap is not None and len(required) > cap:
            return AdmissionDecision(
                REJECT,
                f"{len(required)} required PU classes "
                f"exceed the per-tenant partition cap of {cap}",
            )
        coverable = [c for c in plan.within(cap)
                     if required <= c.schedule.class_set]
        if not coverable:
            return AdmissionDecision(
                REJECT,
                "no cached schedule candidate covers required PU "
                f"classes {sorted(required)} within the "
                "partition cap",
            )

        free = placement.free_classes()
        fitting = [c for c in coverable if c.schedule.class_set <= free]
        if not fitting:
            return AdmissionDecision(
                QUEUE,
                "required PU classes are held by running tenants "
                "(no-oversubscription)",
            )

        # A co-tenant's interference-heavy table was measured with
        # every other PU saturated; a job occupying a fraction x of
        # those others moves its latency x of the way from isolated to
        # interference-heavy.  In cumulative mode x counts every class
        # busy after the admission (incumbents included), so the ratio
        # is the incumbent's predicted *total* slowdown.
        schedulable = self._schedulable
        busy, incumbents = self._incumbent_rows(placement, running)

        # Pick the candidate: impact ceiling first, then the soft
        # placement preference, then modelled latency under today's
        # load; a tie goes to the earlier (better-ranked) candidate.
        preferred = spec.preferred_classes
        best: Optional[ScheduleCandidate] = None
        best_key = None
        best_impact: Dict[str, float] = {}
        for candidate in fitting:
            own = candidate.schedule.class_set
            busy_after = own | busy if self.cumulative_impact else own
            impact = {
                name: (1.0 + len(busy_after & others) / len(others)
                       * (span - 1.0)) if others else 1.0
                for name, others, span in incumbents
            }
            worst = max(impact.values(), default=1.0)
            # The candidate's own latency by the same interpolation,
            # over the classes it would not own.
            unowned = schedulable - own
            fraction = (len(busy & unowned) / len(unowned)
                        if unowned else 0.0)
            isolated, interference, _ = plan.predictions(
                candidate.schedule
            )
            latency = isolated + fraction * (interference - isolated)
            key = (worst > self.max_impact_ratio,
                   not preferred <= own, latency)
            if best_key is None or key < best_key:
                best, best_key, best_impact = candidate, key, impact
        assert best is not None and best_key is not None
        if best_key[0]:
            worst_tenant = max(best_impact, key=lambda t: best_impact[t])
            return AdmissionDecision(
                QUEUE,
                f"predicted {best_impact[worst_tenant]:.2f}x slowdown "
                f"on tenant {worst_tenant!r} exceeds the "
                f"{self.max_impact_ratio:.2f}x impact ceiling",
            )
        return AdmissionDecision(
            ADMIT,
            f"candidate on {sorted(best.schedule.class_set)} fits the "
            "free PUs",
            candidate=best,
            predicted_latency_s=best_key[2],
            predicted_impact=best_impact,
        )

    # ------------------------------------------------------------------
    def _incumbent_rows(
        self, placement: PlacementMap,
        running: Mapping[str, TenantRecord],
    ) -> Tuple[FrozenSet[str], List[tuple]]:
        """What a pricing needs of the placement, not of the newcomer:
        the classes today's tenants keep busy and, per incumbent,
        ``(name, classes it does not own, contention span)``.  Once per
        placement epoch: a partition or a deployed schedule only
        changes through ``placement``."""
        stamp = (placement, placement.epoch)
        rows = self._rows.lookup(stamp, "rows")
        if rows is None:
            schedulable = self._schedulable
            rows = (
                frozenset().union(
                    *(record.partition for record in running.values())),
                [(name, schedulable.difference(record.partition),
                  record.plan.contention_span(record.schedule))
                 for name, record in running.items()
                 if record.plan is not None
                 and record.schedule is not None],
            )
            self._rows.store(stamp, "rows", rows)
        return rows
