"""Admission controller: admit/queue/reject and the impact ceiling."""

import pytest

from repro.errors import FleetError, ServeError
from repro.fleet import FleetConfig
from repro.serve import (
    ADMIT,
    QUEUE,
    REJECT,
    REJECTED,
    RUNNING,
    AdmissionController,
    PlacementMap,
    TenantRecord,
    TenantSpec,
)

from tests.serve.conftest import single_class_schedule
from tests.soaks import one_shard


def controller(platform, plan_cache, **kwargs):
    return AdmissionController(platform, plan_cache, **kwargs)


def spec(app, name="job", **kwargs):
    return TenantSpec(name=name, application=app, **kwargs)


def running_tenant(pmap, plan, app, name, pu_class):
    """Install one running tenant holding a single-class partition."""
    schedule = single_class_schedule(plan, pu_class)
    partition = pmap.assign(name, app, schedule)
    return TenantRecord(
        spec=TenantSpec(name=name, application=app),
        status=RUNNING,
        plan=plan,
        schedule=schedule,
        partition=partition,
    )


class TestValidation:
    def test_negative_queue_capacity(self):
        # The wait queue is the fleet backlog; its bound is checked there.
        with pytest.raises(FleetError, match="queue_capacity"):
            FleetConfig(queue_capacity=-1)

    def test_sub_unity_impact_ceiling(self, platform, plan_cache):
        with pytest.raises(ServeError, match="max_impact_ratio"):
            controller(platform, plan_cache, max_impact_ratio=0.9)

    def test_zero_partition_cap(self, platform, plan_cache):
        with pytest.raises(ServeError, match="max_partition_classes"):
            controller(platform, plan_cache, max_partition_classes=0)


class TestEmptySoC:
    def test_admits_onto_free_pus(self, platform, plan_cache, app):
        pmap = PlacementMap(platform.schedulable_classes())
        decision = controller(platform, plan_cache).evaluate(
            spec(app), pmap, running={},
        )
        assert decision.action == ADMIT
        assert decision.candidate is not None
        assert decision.predicted_latency_s > 0.0

    def test_unschedulable_required_class_rejected(
        self, platform, plan_cache, app
    ):
        pmap = PlacementMap(platform.schedulable_classes())
        decision = controller(platform, plan_cache).evaluate(
            spec(app, required_classes={"npu9000"}),
            pmap, running={},
        )
        assert decision.action == REJECT
        assert "not schedulable" in decision.reason

    def test_required_wider_than_cap_rejected(
        self, platform, plan_cache, app
    ):
        pmap = PlacementMap(platform.schedulable_classes())
        decision = controller(
            platform, plan_cache, max_partition_classes=1,
        ).evaluate(
            spec(app, required_classes={"big", "gpu"}),
            pmap, running={},
        )
        assert decision.action == REJECT
        assert "partition cap" in decision.reason

    def test_required_class_honoured(self, platform, plan_cache, app):
        pmap = PlacementMap(platform.schedulable_classes())
        decision = controller(platform, plan_cache).evaluate(
            spec(app, required_classes={"gpu"}),
            pmap, running={},
        )
        assert decision.action == ADMIT
        assert "gpu" in set(
            decision.candidate.schedule.pu_classes_used
        )

    def test_preference_biases_the_choice(
        self, platform, plan_cache, app
    ):
        pmap = PlacementMap(platform.schedulable_classes())
        decision = controller(
            platform, plan_cache, max_partition_classes=1,
        ).evaluate(
            spec(app, preferred_classes={"little"}),
            pmap, running={},
        )
        assert decision.action == ADMIT
        assert set(decision.candidate.schedule.pu_classes_used) == {
            "little"
        }


class TestContention:
    def test_held_required_class_queues(
        self, platform, plan_cache, plan, app
    ):
        pmap = PlacementMap(platform.schedulable_classes())
        holder = running_tenant(pmap, plan, app, "holder", "gpu")
        decision = controller(
            platform, plan_cache,
        ).evaluate(
            spec(app, name="late", required_classes={"gpu"}),
            pmap, running={"holder": holder},
        )
        assert decision.action == QUEUE
        assert "no-oversubscription" in decision.reason

    def test_full_queue_turns_into_backpressure_reject(self, app):
        # A deferred arrival meets a backlog with no room: the fleet
        # rejects it at once, quoting the shard's verdict.
        router, _, report = one_shard([
            spec(app, name=name, windows=2, required_classes={"gpu"})
            for name in ("holder", "late")
        ], queue_capacity=0)
        assert report.tenants["holder"].status == "completed"
        assert report.tenants["late"].status == REJECTED
        (reject,) = [e for e in report.timeline if e["event"] == "reject"]
        assert reject["tick"] == 0
        assert "no-oversubscription" in reject["reason"]
        assert "backlog is full (0/0)" in reject["reason"]

    def test_impact_ceiling_defers_harmful_admissions(
        self, platform, plan_cache, plan, app
    ):
        pmap = PlacementMap(platform.schedulable_classes())
        holder = running_tenant(pmap, plan, app, "holder", "big")
        # A ceiling of exactly 1.0 forbids any predicted slowdown, so
        # any admission touching the co-tenant's "other" PUs defers.
        decision = controller(
            platform, plan_cache, max_impact_ratio=1.0,
        ).evaluate(
            spec(app, name="late"),
            pmap, running={"holder": holder},
        )
        assert decision.action == QUEUE
        assert "impact ceiling" in decision.reason

    def test_admission_reports_predicted_impact(
        self, platform, plan_cache, plan, app
    ):
        pmap = PlacementMap(platform.schedulable_classes())
        holder = running_tenant(pmap, plan, app, "holder", "big")
        decision = controller(platform, plan_cache).evaluate(
            spec(app, name="late"),
            pmap, running={"holder": holder},
        )
        assert decision.action == ADMIT
        assert decision.predicted_impact["holder"] >= 1.0

    def test_cumulative_impact_accumulates_across_admissions(
        self, platform, plan_cache, plan, app
    ):
        """Cumulative pricing counts incumbents' busy classes, so the
        same newcomer weighs more on a fuller SoC; incremental pricing
        is indifferent to how packed the shard already is."""
        sparse = PlacementMap(platform.schedulable_classes())
        holder_a = running_tenant(sparse, plan, app, "holder", "big")
        dense = PlacementMap(platform.schedulable_classes())
        holder_b = running_tenant(dense, plan, app, "holder", "big")
        other = running_tenant(dense, plan, app, "other", "medium")

        def worst(ctrl, pmap, running):
            decision = ctrl.evaluate(
                spec(app, name="late", required_classes={"little"}),
                pmap, running=running,
            )
            assert decision.action == ADMIT
            return decision.predicted_impact["holder"]

        cumulative = controller(
            platform, plan_cache, cumulative_impact=True,
            max_impact_ratio=10.0,
        )
        incremental = controller(
            platform, plan_cache, max_impact_ratio=10.0,
        )
        assert worst(cumulative, dense, {
            "holder": holder_b, "other": other,
        }) > worst(cumulative, sparse, {"holder": holder_a})
        # The incremental model sees the same marginal contribution
        # either way.
        sparse2 = PlacementMap(platform.schedulable_classes())
        holder_c = running_tenant(sparse2, plan, app, "holder", "big")
        dense2 = PlacementMap(platform.schedulable_classes())
        holder_d = running_tenant(dense2, plan, app, "holder", "big")
        other_d = running_tenant(dense2, plan, app, "other", "medium")
        assert worst(incremental, dense2, {
            "holder": holder_d, "other": other_d,
        }) == pytest.approx(
            worst(incremental, sparse2, {"holder": holder_c})
        )
