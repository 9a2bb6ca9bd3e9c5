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
matter.
"""

import pytest

from repro.fleet import FleetConfig, FleetRouter, ShardSpec
from repro.serve.tenant import FAILED
from repro.traffic import FleetOverloadScenario, OpenLoopDriver
from repro.traffic.generator import TrafficGenerator

HORIZON_DETAIL = "open-loop horizon reached with work in flight"


def _soak(seed, platforms, n_shards, horizon, load, pool, ticks):
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
            reschedule=True,
        ),
    )
    OpenLoopDriver(
        router, TrafficGenerator(spec, seed=seed).events(), ticks=ticks,
        stage_count=spec.stage_count,
        slo_by_tier={t.name: t.slo_slowdown for t in spec.tiers},
    ).run()
    return router


@pytest.mark.parametrize("seed,kwargs", [
    (3, dict(platforms=("pixel7a", "oneplus11", "jetson_orin_nano"),
             n_shards=6, horizon=240, load=0.7, pool=192, ticks=14)),
    (8, dict(platforms=("pixel7a", "oneplus11", "jetson_orin_nano"),
             n_shards=6, horizon=240, load=0.7, pool=192, ticks=14)),
    (21, dict(platforms=("pixel7a",), n_shards=8, horizon=400, load=0.5,
              pool=4, ticks=56)),
])
def test_no_tenant_fails_on_a_released_placement(seed, kwargs):
    router = _soak(seed, **kwargs)
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
            if w["tenant"] == tenant.name and w["shard"] == event["shard"]
            and w["tick"] <= event["tick"]
        )
        assert served_there >= 1
        assert tenant.windows_served >= served_there
