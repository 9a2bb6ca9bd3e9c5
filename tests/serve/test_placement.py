"""PlacementMap invariants: disjoint partitions, rollback, offered load."""

import pytest

from repro.core.schedule import Schedule
from repro.errors import ServeError
from repro.serve import PlacementMap, tenant_offered_load

from tests.serve.conftest import single_class_schedule


@pytest.fixture
def pmap(platform):
    return PlacementMap(platform.schedulable_classes())


class TestAssign:
    def test_grants_the_schedule_classes(self, pmap, plan, app):
        schedule = single_class_schedule(plan, "big")
        granted = pmap.assign("a", app, schedule)
        assert granted == ("big",)
        assert pmap.partition_of("a") == frozenset({"big"})

    def test_a_grant_is_a_sorted_tuple(self, pmap, app):
        # No set order can reach a report through a partition.
        schedule = Schedule(("little", "gpu", "gpu"))
        assert pmap.assign("a", app, schedule) == ("gpu", "little")

    def test_duplicate_tenant_rejected(self, pmap, plan, app):
        pmap.assign("a", app, single_class_schedule(plan, "big"))
        with pytest.raises(ServeError, match="already holds"):
            pmap.assign("a", app, single_class_schedule(plan, "gpu"))

    def test_oversubscription_rejected(self, pmap, plan, app):
        pmap.assign("a", app, single_class_schedule(plan, "big"))
        with pytest.raises(ServeError, match="oversubscribe"):
            pmap.assign("b", app, single_class_schedule(plan, "big"))

    def test_unschedulable_class_rejected(self, plan, app):
        narrow = PlacementMap({"big", "little"})
        with pytest.raises(ServeError, match="unschedulable"):
            narrow.assign("a", app, single_class_schedule(plan, "gpu"))

    def test_free_classes_shrink_and_recover(self, pmap, plan, app,
                                             platform):
        everything = frozenset(platform.schedulable_classes())
        assert pmap.free_classes() == everything
        pmap.assign("a", app, single_class_schedule(plan, "big"))
        assert pmap.free_classes() == everything - {"big"}
        pmap.release("a")
        assert pmap.free_classes() == everything


class TestReassign:
    def test_moves_the_partition(self, pmap, plan, app):
        pmap.assign("a", app, single_class_schedule(plan, "big"))
        granted = pmap.reassign(
            "a", app, single_class_schedule(plan, "medium")
        )
        assert granted == ("medium",)
        assert pmap.free_classes() >= {"big"}

    def test_failed_reassign_rolls_back(self, pmap, plan, app):
        pmap.assign("a", app, single_class_schedule(plan, "big"))
        pmap.assign("b", app, single_class_schedule(plan, "gpu"))
        with pytest.raises(ServeError, match="oversubscribe"):
            pmap.reassign("a", app, single_class_schedule(plan, "gpu"))
        # The failed move must not have dropped a's original grant.
        assert pmap.partition_of("a") == frozenset({"big"})

    def test_mid_mutation_rollback_leaves_three_tenants_intact(
        self, pmap, plan, app, platform
    ):
        # Three incumbents; the failing reassign is the *middle* of a
        # mutation (c's grant released, new grant refused), so rollback
        # must restore c exactly while never touching a or b.
        pmap.assign("a", app, single_class_schedule(plan, "big"))
        pmap.assign("b", app, single_class_schedule(plan, "gpu"))
        pmap.assign("c", app, single_class_schedule(plan, "medium"))
        before_free = pmap.free_classes()
        with pytest.raises(ServeError, match="oversubscribe"):
            pmap.reassign("c", app, single_class_schedule(plan, "gpu"))
        assert pmap.partition_of("a") == frozenset({"big"})
        assert pmap.partition_of("b") == frozenset({"gpu"})
        assert pmap.partition_of("c") == frozenset({"medium"})
        assert pmap.free_classes() == before_free
        pmap.check()
        # The map is still fully functional after the rollback: c can
        # move to a genuinely free class.
        assert (pmap.reassign("c", app,
                              single_class_schedule(plan, "little"))
                == ("little",))
        pmap.check()


class TestReleaseAndCheck:
    def test_release_unknown_tenant(self, pmap):
        with pytest.raises(ServeError, match="holds no placement"):
            pmap.release("ghost")

    def test_check_catches_a_corrupted_map(self, pmap, plan, app):
        pmap.assign("a", app, single_class_schedule(plan, "big"))
        # Simulate a bookkeeping bug the public API cannot produce.
        pmap._partitions["b"] = frozenset({"big"})
        with pytest.raises(ServeError, match="placement invariant"):
            pmap.check()

    def test_empty_schedulable_set_rejected(self):
        with pytest.raises(ServeError, match="no schedulable"):
            PlacementMap([])


class TestOfferedLoad:
    def test_bottleneck_class_is_fully_busy(self, plan, app, platform):
        schedule = plan.optimization.candidates[0].schedule
        load = tenant_offered_load(
            app, plan.isolated, schedule, platform
        )
        assert load.busy
        assert max(load.busy.values()) == pytest.approx(1.0)
        assert all(0.0 < f <= 1.0 for f in load.busy.values())

    def test_only_used_classes_appear(self, plan, app, platform):
        schedule = single_class_schedule(plan, "big")
        load = tenant_offered_load(
            app, plan.isolated, schedule, platform
        )
        assert set(load.busy) == {"big"}
        assert load.demand_gbps >= 0.0
