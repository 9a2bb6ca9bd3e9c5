"""The CLI's soak presets, as test equipment.

Every serving command runs one loop, the soak runner
(:class:`~repro.traffic.driver.OpenLoopDriver`), over a preset's fleet
and arrival source.  These helpers compose the presets the way the CLI
does and hand back what the tests look at.
"""

from typing import Dict, List

from repro.fleet import (
    FleetConfig,
    build_fleet,
    one_shard_fleet,
    serve_fleet,
)
from repro.traffic import CURVE_MULTIPLIERS, OpenLoopDriver, evaluate


def drive(router, tenants):
    """Run a fixed tenant list on ``router`` until it drains; the fleet
    report."""
    return OpenLoopDriver(router, list(tenants)).run().fleet_report


def one_shard(specs, seed=7, **config):
    """Run ``specs`` on a one-shard pixel7a fleet (platform seed 7);
    ``config`` goes to :class:`FleetConfig` over the serving defaults
    (16 ticks, a backlog of 4 that waits the whole run, impact ceiling
    1.5, no partition cap).  Returns ``(router, server, report)``: the
    shard's one (closed) server generation and the fleet report."""
    config.setdefault("max_ticks", 16)
    config.setdefault("queue_capacity", 4)
    config.setdefault("backlog_patience", config["max_ticks"])
    config.setdefault("max_impact_ratio", 1.5)
    config.setdefault("max_partition_classes", None)
    router = one_shard_fleet("pixel7a", 7, seed, FleetConfig(**config))
    report = drive(router, specs)
    (server,) = router.shards[0].closed_servers
    return router, server, report


def run_soak(scenario, reschedule=True):
    """``repro serve``: the serving soak's one-shard fleet, run;
    ``(server, report)`` - the shard's server and the fleet report."""
    router = serve_fleet(scenario, reschedule=reschedule)
    report = drive(router, scenario.tenants())
    (server,) = router.shards[0].closed_servers
    return server, report


def run_fleet_soak(scenario, failover=True, attribution=False):
    """``repro fleet``: the chaos soak, run; ``(router, report)``."""
    router = build_fleet(scenario, failover=failover,
                         attribution=attribution)
    return router, drive(router, scenario.tenants())


def run_overload_soak(scenario, admission=True, trace=None,
                      attribution=False, burn=None, on_tick=None):
    """``repro traffic soak|replay`` / ``repro top``: one open-loop run
    of the overload preset, evaluated against its stream's spec and
    seed; ``(result, report)``."""
    result = scenario.driver(admission=admission, trace=trace,
                             attribution=attribution, burn=burn,
                             ).run(on_tick=on_tick)
    spec, seed = ((trace.spec, trace.seed) if trace is not None
                  else (scenario.spec(), scenario.seed))
    return result, evaluate(spec, seed, result)


def overload_curve(scenario, admission=True) -> List[Dict[str, object]]:
    """``repro traffic soak --curve``: goodput against offered load."""
    points = []
    for multiplier in CURVE_MULTIPLIERS:
        _, report = run_overload_soak(scenario.at_multiplier(multiplier),
                                      admission=admission)
        points.append({
            "load_multiplier": multiplier,
            "arrivals": report.arrivals,
            "offered_windows": report.offered_windows,
            "served_windows": report.served_windows,
            "goodput_windows": report.goodput_windows,
            "goodput_tasks": report.goodput_tasks,
        })
    return points
