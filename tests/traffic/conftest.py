"""Shared fixtures: a small, fast workload and fleet for unit tests.

The overload acceptance tests (:mod:`tests.traffic.test_overload_soak`)
run the shipped :class:`~repro.traffic.FleetOverloadScenario` verbatim;
everything else uses this scaled-down spec so generator/driver/trace
mechanics are exercised in well under a second.
"""

import pytest

from repro.traffic import BurstSpec, FleetOverloadScenario, TrafficSpec


@pytest.fixture()
def small_spec():
    return TrafficSpec(
        ticks=10,
        arrivals_per_tick=0.8,
        diurnal_amplitude=0.3,
        diurnal_period_ticks=10,
        bursts=(BurstSpec(start_tick=3, end_tick=6, multiplier=2.0),),
        app_pool_size=3,
        stage_count=2,
    )


@pytest.fixture()
def small_scenario():
    return FleetOverloadScenario(
        ticks=10,
        n_shards=1,
        saturation_arrivals_per_tick=0.8,
        load_multiplier=1.0,
    )
