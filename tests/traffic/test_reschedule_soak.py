"""Open-loop soaks with online rescheduling ON must lose no tenant.

With ``reschedule=True`` a shard's eviction fallback can remove a
tenant whose window is later in the same tick's batch.  The window was
already simulated, so it counts - but the server used to trip over the
released placement and overwrite the tenant to FAILED ("holds no
placement").  The perf harness found it on the seeds below and had to
switch rescheduling off: its mixed-SoC fleet (6 shards over 3 SoC
types, 192-app pool) at seeds 3 and 8 within the first dozen ticks -
before that soak's first scheduled crash - and its steady 8-shard fleet
at seed 21, tick 52.  These are those soaks, cut to the ticks that
matter: past the evictions, and on to each soak's first reschedule
SWITCH, whose window must be logged against the schedule it ran on.
"""

import functools

import pytest

from repro.fleet import FleetConfig, FleetRouter, ShardSpec
from repro.serve.server import PipelineServer
from repro.serve.tenant import FAILED
from repro.traffic import FleetOverloadScenario, OpenLoopDriver
from repro.traffic.generator import TrafficGenerator

HORIZON_DETAIL = "open-loop horizon reached with work in flight"


@functools.lru_cache(maxsize=None)
def _soak(seed, platforms, n_shards, horizon, load, pool, ticks):
    """(router, switches): the soak, and for every reschedule SWITCH
    the triggering window's row with its plan and the schedules
    deployed before and after."""
    switches = []
    react = PipelineServer._react_to_drift

    def spy(server, tick, name, record, external, measured):
        before = record.schedule
        react(server, tick, name, record, external, measured)
        if record.schedule is not before:
            switches.append((record.history[-1], record.plan, before,
                             record.schedule))

    scenario = FleetOverloadScenario(
        seed=seed, n_shards=n_shards, ticks=horizon,
        load_multiplier=load, app_pool_size=pool,
    )
    spec = scenario.spec()
    router = FleetRouter(
        [ShardSpec(name=f"soc{i}",
                   platform_name=platforms[i % len(platforms)],
                   platform_seed=scenario.platform_seed)
         for i in range(n_shards)],
        seed=seed,
        config=FleetConfig(
            max_ticks=horizon,
            max_impact_ratio=scenario.admission_max_impact_ratio,
            cumulative_impact=True, max_partition_classes=1,
            backlog_patience=scenario.backlog_patience,
            reschedule=True, attribution=True,
        ),
    )
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(PipelineServer, "_react_to_drift", spy)
        OpenLoopDriver(
            router, TrafficGenerator(spec, seed=seed).events(),
            ticks=ticks, stage_count=spec.stage_count,
            slo_by_tier={t.name: t.slo_slowdown for t in spec.tiers},
        ).run()
    return router, switches


SOAKS = pytest.mark.parametrize("seed,kwargs", [
    (3, dict(platforms=("pixel7a", "oneplus11", "jetson_orin_nano"),
             n_shards=6, horizon=240, load=0.7, pool=192, ticks=50)),
    (8, dict(platforms=("pixel7a", "oneplus11", "jetson_orin_nano"),
             n_shards=6, horizon=240, load=0.7, pool=192, ticks=79)),
    (21, dict(platforms=("pixel7a",), n_shards=8, horizon=400, load=0.5,
              pool=4, ticks=57)),
])


@SOAKS
def test_no_tenant_fails_on_a_released_placement(seed, kwargs):
    router, _ = _soak(seed, **kwargs)
    displaced = [e for e in router.timeline if e["event"] == "displace"]
    assert displaced, "the soak no longer exercises shard evictions"
    lost = {
        name: tenant.status_detail
        for name, tenant in router.tenants.items()
        if tenant.status == FAILED
        and tenant.status_detail != HORIZON_DETAIL
    }
    assert lost == {}
    assert not [e for e in router.timeline if e["event"] == "fail"]
    # Every displaced tenant kept the window that was in flight.
    for event in displaced:
        tenant = router.tenants[event["tenant"]]
        served_there = sum(
            1 for w in router.window_log
            if w.tenant == tenant.name and w.shard == event["shard"]
            and w.tick <= event["tick"]
        )
        assert served_there >= 1
        assert tenant.windows_served >= served_there


@SOAKS
def test_switch_window_is_logged_against_the_schedule_it_ran_on(
        seed, kwargs):
    """The window that triggers a SWITCH ran under the old schedule;
    its row's reference - and so its slowdown, its SLO verdict and its
    blame - must be that schedule's, not the one deployed after it."""
    router, switches = _soak(seed, **kwargs)
    reschedules = sum(t.reschedules for t in router.tenants.values())
    assert switches and len(switches) == reschedules
    for row, plan, before, after in switches:
        assert any(row is logged for logged in router.window_log)
        assert row.isolated_s == plan.isolated_prediction(before)
        # The switch moved the reference, so the mix-up would show.
        assert row.isolated_s != plan.isolated_prediction(after)
        # ... and it is the slowdown the blame decomposition was given
        # (which divides the unrounded measurement).
        assert (row.blame.slowdown
                == row.measured_latency_s / row.isolated_s)
        assert row.slowdown == pytest.approx(row.blame.slowdown,
                                             rel=1e-6)
