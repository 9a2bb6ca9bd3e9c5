"""Chaos schedule validation and injector queries."""

import pytest

from repro.errors import FleetError, ReproError
from repro.fleet import (
    ChaosInjector,
    ChaosSchedule,
    DegradeSpec,
    GrayFailureSpec,
    FleetRouter,
    ShardCrashSpec,
    ShardSpec,
)


class TestSpecValidation:
    def test_crash_rejoin_must_follow_crash(self):
        with pytest.raises(FleetError, match="rejoin_tick"):
            ShardCrashSpec("soc0", at_tick=10, rejoin_tick=10)

    def test_crash_tick_must_be_nonnegative(self):
        with pytest.raises(FleetError, match="at_tick"):
            ShardCrashSpec("soc0", at_tick=-1)

    def test_gray_window_must_be_nonempty(self):
        with pytest.raises(FleetError, match="end_tick"):
            GrayFailureSpec("soc0", start_tick=5, end_tick=5)

    def test_degrade_busy_fraction_bounds(self):
        with pytest.raises(FleetError, match="busy fraction"):
            DegradeSpec("soc0", start_tick=0, busy={"big": 1.5})
        with pytest.raises(FleetError, match="busy fraction"):
            DegradeSpec("soc0", start_tick=0, busy={"big": 0.0})

    def test_duplicate_crash_specs_rejected(self):
        with pytest.raises(FleetError, match="multiple crash"):
            ChaosSchedule(crashes=[
                ShardCrashSpec("soc0", at_tick=4),
                ShardCrashSpec("soc0", at_tick=9),
            ])

    def test_fleet_errors_are_repro_errors(self):
        with pytest.raises(ReproError):
            GrayFailureSpec("soc0", start_tick=-1, end_tick=3)


class TestScheduleQueries:
    @pytest.fixture
    def injector(self):
        schedule = ChaosSchedule(
            crashes=[ShardCrashSpec("a", at_tick=4, rejoin_tick=9)],
            grays=[GrayFailureSpec("b", start_tick=2, end_tick=6)],
            degradations=[DegradeSpec("c", start_tick=3, end_tick=7,
                                      busy={"big": 0.5})],
        )
        return ChaosInjector(schedule)

    def test_crash_and_rejoin_lookup(self, injector):
        assert [c.shard for c in injector.crashes_at(4)] == ["a"]
        assert injector.crashes_at(5) == []
        assert [c.shard for c in injector.rejoins_at(9)] == ["a"]

    def test_gray_half_open_interval(self, injector):
        assert not injector.gray_active("b", 1)
        assert injector.gray_active("b", 2)
        assert injector.gray_active("b", 5)
        assert not injector.gray_active("b", 6)
        assert not injector.gray_active("a", 3)

    def test_gray_edges(self, injector):
        assert [g.shard for g in injector.gray_edges_at(2)] == ["b"]
        assert [g.shard for g in injector.gray_edges_at(6)] == ["b"]
        assert injector.gray_edges_at(4) == []

    def test_degradation_lookup(self, injector):
        assert [d.shard for d in injector.degradations_at(3)] == ["c"]
        assert [d.shard for d in injector.degrade_ends_at(7)] == ["c"]

    def test_record_appends_events(self, injector):
        injector.record(4, "soc-crash", "a", detail="test")
        assert injector.events == [{
            "tick": 4, "kind": "soc-crash", "shard": "a",
            "detail": "test",
        }]


def test_a_degradation_starting_at_a_rejoin_is_handed_over_once():
    """The rejoined generation gets a degradation starting on its rejoin
    tick once: one drift, that degradation's load."""
    degrade = DegradeSpec("soc0", start_tick=3, busy={"gpu": 0.5},
                          demand_gbps=4.0)
    router = FleetRouter([ShardSpec("soc0")], chaos=ChaosSchedule(
        crashes=[ShardCrashSpec("soc0", at_tick=1, rejoin_tick=3)],
        degradations=[degrade]))
    router.open_stepped()
    for tick in range(4):
        router.step(tick)
    ((load, end_tick),) = router.shards[0].server._drifts
    assert (load.busy, load.demand_gbps, end_tick) == (
        {"gpu": 0.5}, 4.0, None)
    router.close_stepped()
