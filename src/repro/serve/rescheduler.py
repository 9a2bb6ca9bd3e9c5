"""Online rescheduling: drift detection and live candidate re-ranking.

The offline flow freezes one schedule per tenant; the serving layer
cannot afford that, because contention changes whenever a tenant
arrives, finishes, or is evicted - and when outside load (injected
drift) leans on a PU class.  The rescheduler closes the loop the same
way the paper's level 3 does: never re-profile online, *re-rank the
cached candidates* under the measured conditions.

Per window and per tenant:

1. **Classify** the measured latency against the tenant's two
   profiles.  ``position = (measured/isolated - 1) / (span - 1)``
   places it on the isolated (0.0) .. interference-heavy (1.0) axis;
   past the midpoint the tenant is in the ``interference`` regime.
2. **Detect drift**: the measurement exceeding the post-deployment
   baseline by ``DRIFT_THRESHOLD`` arms the rescheduler.
3. **Re-rank** the cached candidates that fit the tenant's partition
   plus currently-free PUs, scored by :meth:`OnlineRescheduler.score`:
   each *chunk* is interpolated isolated->interference by
   :func:`~repro.soc.interference.external_co_load`, a weight that
   counts the schedule's own sibling chunks as busy as well as the
   external load, then stretched by fair-share time-sharing on classes
   the external load touches directly.  This is not admission's
   formula: :class:`~repro.serve.admission.AdmissionController`
   interpolates the *whole* schedule by the share of its unowned
   classes that co-tenants keep busy, so on an idle SoC it prices a
   multi-class schedule at its isolated latency while ``score`` does
   not.  A strictly better candidate is deployed; otherwise the
   server's patience counter keeps running and eventually triggers the
   eviction fallback.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import FrozenSet, Optional

from repro.core.optimizer import ScheduleCandidate
from repro.core.plan_cache import CachedPlan
from repro.core.schedule import Schedule
from repro.errors import ServeError
from repro.serve.tenant import TenantRecord
from repro.soc.interference import ExternalLoad, external_co_load
from repro.soc.platform import Platform

HOLD = "hold"
SWITCH = "switch"
EVICT = "evict"

ISOLATED_REGIME = "isolated"
INTERFERENCE_REGIME = "interference"

#: Measured/baseline ratio that arms rescheduling (20% above the
#: post-deploy baseline).
DRIFT_THRESHOLD = 1.2
#: Relative improvement a challenger candidate must predict before a
#: switch is worth the disruption.
MIN_GAIN = 0.02


@dataclass(frozen=True)
class RescheduleAction:
    """What the control loop should do about one drifted tenant."""

    kind: str  # HOLD | SWITCH | EVICT
    reason: str
    candidate: Optional[ScheduleCandidate] = None
    predicted_latency_s: float = 0.0


class OnlineRescheduler:
    """Drift detector + candidate re-ranker for running tenants on one
    shared virtual SoC.

    Note: the admission controller's partition-width cap deliberately
    does NOT bind here.  The cap is a packing-fairness rule for
    *arrivals*; once contention drifts, annexing currently-free PU
    classes is the whole point of rescheduling - they are free exactly
    because admission packing left slack, and the no-oversubscription
    invariant still holds (re-checked by the placement map on every
    reassign).
    """

    def __init__(self, platform: Platform):
        self.platform = platform
        self._total_classes = len(platform.schedulable_classes())

    # ------------------------------------------------------------------
    def classify(self, record: TenantRecord, measured_s: float,
                 isolated_s: float) -> str:
        """Place a measurement on the isolated..interference axis;
        ``isolated_s`` is the deployed schedule's isolated prediction
        (the server already holds it for the window's row)."""
        if record.plan is None or record.schedule is None:
            raise ServeError(
                f"tenant {record.name!r} has no deployed plan to "
                "classify against"
            )
        span = record.plan.contention_span(record.schedule)
        if span <= 1.0:  # also what a non-positive prediction spans
            return ISOLATED_REGIME
        position = (measured_s / isolated_s - 1.0) / (span - 1.0)
        return (
            INTERFERENCE_REGIME if position >= 0.5 else ISOLATED_REGIME
        )

    def drifted(self, record: TenantRecord, measured_s: float) -> bool:
        """Has this window drifted from the post-deploy baseline?"""
        baseline = record.baseline_latency_s
        if baseline is None or baseline <= 0:
            return False
        return measured_s > baseline * DRIFT_THRESHOLD

    # ------------------------------------------------------------------
    def score(
        self,
        plan: CachedPlan,
        schedule: Schedule,
        external: ExternalLoad,
    ) -> float:
        """Modelled per-task latency of ``schedule`` under ``external``.

        Per chunk: interpolate each table entry between isolated and
        interference-heavy by the chunk's DVFS co-load (internal busy
        chunks + external fractions), then stretch by fair-share
        time-sharing where the external load sits on the chunk's own
        class.  The pipeline latency is the bottleneck chunk, as ever.
        """
        app = plan.application
        iso_times = schedule.chunk_times(app, plan.isolated)
        intf_times = schedule.chunk_times(app, plan.interference)
        busy_classes = set(schedule.pu_classes_used)
        worst = 0.0
        for chunk, t_iso in iso_times.items():
            total_other = self._total_classes - 1
            w = external_co_load(
                busy_classes, chunk.pu_class, external, total_other
            )
            t = t_iso + w * (intf_times[chunk] - t_iso)
            share = external.busy.get(chunk.pu_class, 0.0)
            if share > 0.0:
                t *= 1.0 + share
            worst = max(worst, t)
        return worst

    def rerank(
        self,
        record: TenantRecord,
        external: ExternalLoad,
        free_classes: FrozenSet[str],
    ) -> RescheduleAction:
        """Pick the control action for one drifted tenant.

        The search space is the tenant's cached candidates restricted
        to PUs it may legally occupy: its own partition plus whatever
        is currently free (never a co-tenant's PUs - the
        no-oversubscription invariant survives rescheduling).
        """
        if record.plan is None or record.schedule is None:
            raise ServeError(
                f"tenant {record.name!r} is not deployed; nothing to "
                "re-rank"
            )
        allowed = free_classes.union(record.partition)
        required = record.spec.required_classes
        fitting = [
            c for c in record.plan.optimization.candidates
            if required <= c.schedule.class_set <= allowed
        ]
        if not fitting:
            return RescheduleAction(
                EVICT,
                "no cached candidate fits the tenant's partition plus "
                f"free PUs {sorted(free_classes)}",
            )
        current_score = self.score(
            record.plan, record.schedule, external
        )
        best = min(
            fitting,
            key=lambda c: (
                self.score(record.plan, c.schedule, external), c.rank
            ),
        )
        best_score = self.score(record.plan, best.schedule, external)
        if (
            best.schedule.assignments == record.schedule.assignments
            or best_score >= current_score * (1.0 - MIN_GAIN)
        ):
            return RescheduleAction(
                HOLD,
                "no cached candidate predicts a "
                f">{MIN_GAIN:.0%} gain under the current load",
                predicted_latency_s=current_score,
            )
        return RescheduleAction(
            SWITCH,
            f"candidate rank {best.rank} predicts "
            f"{best_score / current_score:.2f}x of current latency "
            "under the measured contention",
            candidate=best,
            predicted_latency_s=best_score,
        )
