"""Online rescheduler: drift classification, scoring, re-ranking."""

import pytest

from repro.errors import ServeError
from repro.serve import (
    EVICT,
    HOLD,
    RUNNING,
    SWITCH,
    OnlineRescheduler,
    TenantRecord,
    TenantSpec,
)
from repro.serve import rescheduler as rescheduler_module
from repro.serve.rescheduler import DRIFT_THRESHOLD
from repro.soc.interference import ExternalLoad

from tests.serve.conftest import single_class_schedule


@pytest.fixture
def rescheduler(platform):
    return OnlineRescheduler(platform)


def deployed_record(plan, app, pu_class="big", **spec_kwargs):
    schedule = single_class_schedule(plan, pu_class)
    return TenantRecord(
        spec=TenantSpec(name="t", application=app, **spec_kwargs),
        status=RUNNING,
        plan=plan,
        schedule=schedule,
        partition=frozenset({pu_class}),
        baseline_latency_s=plan.isolated_prediction(schedule),
    )


class TestClassify:
    def test_isolated_measurement(self, rescheduler, plan, app):
        record = deployed_record(plan, app)
        isolated = plan.isolated_prediction(record.schedule)
        assert rescheduler.classify(
            record, isolated, isolated) == "isolated"

    def test_saturated_measurement(self, rescheduler, plan, app):
        record = deployed_record(plan, app)
        heavy = plan.predictions(record.schedule)[1]
        isolated = plan.isolated_prediction(record.schedule)
        assert rescheduler.classify(
            record, heavy, isolated) == "interference"

    def test_undeployed_record_rejected(self, rescheduler, app):
        bare = TenantRecord(
            spec=TenantSpec(name="t", application=app)
        )
        with pytest.raises(ServeError, match="no deployed plan"):
            rescheduler.classify(bare, 0.01, 0.01)


class TestDrifted:
    def test_no_baseline_never_drifts(self, rescheduler, plan, app):
        record = deployed_record(plan, app)
        record.baseline_latency_s = None
        assert not rescheduler.drifted(record, 1e9)

    def test_threshold_is_strict(self, rescheduler, plan, app):
        record = deployed_record(plan, app)
        base = record.baseline_latency_s
        assert not rescheduler.drifted(record, base * DRIFT_THRESHOLD)
        assert rescheduler.drifted(record, base * DRIFT_THRESHOLD * 1.01)


class TestScore:
    def test_no_external_load_is_the_isolated_time(
        self, rescheduler, plan, app
    ):
        schedule = single_class_schedule(plan, "big")
        score = rescheduler.score(plan, schedule, ExternalLoad.none())
        assert score == pytest.approx(
            plan.isolated_prediction(schedule)
        )

    def test_load_on_own_class_raises_the_score(
        self, rescheduler, plan, app
    ):
        schedule = single_class_schedule(plan, "big")
        idle = rescheduler.score(plan, schedule, ExternalLoad.none())
        loaded = rescheduler.score(
            plan, schedule,
            ExternalLoad(busy={"big": 0.8}, demand_gbps=4.0),
        )
        assert loaded > idle


class TestRerank:
    def test_undeployed_record_rejected(self, rescheduler, app):
        bare = TenantRecord(
            spec=TenantSpec(name="t", application=app)
        )
        with pytest.raises(ServeError, match="not deployed"):
            rescheduler.rerank(bare, ExternalLoad.none(), frozenset())

    def test_holds_when_nothing_is_better(
        self, rescheduler, plan, app, platform
    ):
        # Deployed on the offline-best schedule with the whole SoC
        # free and no external load: nothing can beat it.
        best = plan.optimization.candidates[0]
        record = deployed_record(plan, app)
        record.schedule = best.schedule
        record.partition = frozenset(best.schedule.pu_classes_used)
        action = rescheduler.rerank(
            record, ExternalLoad.none(),
            frozenset(platform.schedulable_classes()),
        )
        assert action.kind == HOLD

    def test_switches_away_from_a_contended_class(
        self, rescheduler, plan, app, platform
    ):
        # Pinned to one heavily-contended class with everything else
        # free: the offline-best multi-class candidate wins easily.
        record = deployed_record(plan, app, pu_class="big")
        free = frozenset(platform.schedulable_classes()) - {"big"}
        action = rescheduler.rerank(
            record,
            ExternalLoad(busy={"big": 0.9}, demand_gbps=4.0),
            free,
        )
        assert action.kind == SWITCH
        assert action.candidate is not None
        current = rescheduler.score(
            plan, record.schedule,
            ExternalLoad(busy={"big": 0.9}, demand_gbps=4.0),
        )
        assert action.predicted_latency_s < current

    def test_huge_min_gain_holds(self, monkeypatch, rescheduler, plan, app,
                                 platform):
        monkeypatch.setattr(rescheduler_module, "MIN_GAIN", 0.99)
        record = deployed_record(plan, app, pu_class="big")
        free = frozenset(platform.schedulable_classes()) - {"big"}
        action = rescheduler.rerank(
            record, ExternalLoad(busy={"big": 0.9}), free,
        )
        assert action.kind == HOLD

    def test_no_fitting_candidate_asks_for_eviction(
        self, rescheduler, plan, app
    ):
        # Requires a class outside its partition while nothing is
        # free: no cached candidate can legally run.
        record = deployed_record(
            plan, app, pu_class="big",
            required_classes={"gpu"},
        )
        action = rescheduler.rerank(
            record, ExternalLoad.none(), frozenset(),
        )
        assert action.kind == EVICT
        assert "no cached candidate fits" in action.reason
