"""One row per served window, and the reports it feeds.

A served window is written once (:class:`~repro.serve.tenant.
WindowSample`, by the shard server) and every layer above holds that
object.  Two kinds of test:

* **Identity** - the traffic run's ``samples`` *is* the router's
  ``window_log``, and each row *is* the element the shard server just
  appended to its tenant's history, checked at every harvest.
* **Oracle** - the arithmetic the reports used before there was a row
  is kept here as test equipment: per-task sample lists replicated at
  harvest, float-index segment starts, per-tier slowdown lists, all
  rebuilt from nothing but the shard timelines' ``window`` entries and
  the fleet's ``place``/``migrate`` events.  Every ``FleetReport``
  tenant row, both surviving-p95 headlines and every ``TrafficReport``
  tier row must equal it float for float, on the chaos soak and on the
  overload soak, attribution off and on.
"""

import pytest

from repro.fleet import FleetRouter
from repro.obs import capture
from repro.obs.metrics import percentile
from repro.traffic import FleetOverloadScenario, FleetSoakScenario, evaluate

ATTRIBUTION = pytest.mark.parametrize(
    "attribution", [False, True], ids=["plain", "attribution"])


def chaos_soak(attribution):
    driver = FleetSoakScenario().driver(attribution=attribution)
    return driver.router, driver.run().fleet_report


def overload_soak(attribution):
    scenario = FleetOverloadScenario()
    driver = scenario.driver(attribution=attribution)
    result = driver.run()
    return (driver.router, result,
            evaluate(scenario.spec(), scenario.seed, result))


# ----------------------------------------------------------------------
# The old arithmetic (test equipment)
# ----------------------------------------------------------------------
def old_window_log(router):
    """The parent's ``window_log`` dicts, from the shard timelines:
    per tick, shards by index, each server's own timeline order."""
    by_tick = {}
    for shard in router.shards:
        for server in shard.closed_servers:
            for entry in server.timeline:
                if entry["event"] == "window":
                    by_tick.setdefault(entry["tick"], []).append({
                        "tick": entry["tick"], "tenant": entry["tenant"],
                        "shard": shard.name,
                        "latency_s": entry["latency_s"],
                    })
    return [w for tick in sorted(by_tick) for w in by_tick[tick]]


def old_tenant_tables(router, window_log):
    """tenant -> (samples, segment_starts) as the parent's harvest
    kept them: ``[latency] * window_tasks`` per window, and the sample
    count at each placement.

    Within a tick a backlog placement precedes the tick's windows and a
    failover migration (the one carrying a ``detail``) follows them.
    """
    steps = [(w["tick"], 1, w["tenant"], w["latency_s"])
             for w in window_log]
    steps += [(e["tick"], 2 if "detail" in e else 0, e["tenant"], None)
              for e in router.timeline
              if e["event"] in ("place", "migrate")]
    steps.sort(key=lambda step: step[:2])  # stable: harvest order kept
    tables = {name: ([], []) for name in router.tenants}
    for _, _, name, latency in steps:
        samples, starts = tables[name]
        if latency is None:
            starts.append(len(samples))
        else:
            samples.extend(
                [latency] * router.tenants[name].spec.window_tasks)
    return tables


def old_slowdowns(samples, starts):
    out = []
    bounds = list(starts) + [len(samples)]
    for start, end in zip(bounds, bounds[1:]):
        if end <= start:
            continue
        baseline = samples[start]
        for sample in samples[start:end]:
            out.append(sample / baseline if baseline > 0.0 else 1.0)
    return out


def old_tenant_row(tenant, samples):
    def latency(value):
        return round(value, 9) if samples else "n/a"

    stats = ((sum(samples) / len(samples), percentile(samples, 50.0),
              percentile(samples, 95.0), max(samples))
             if samples else (0.0, 0.0, 0.0, 0.0))
    return stats, {
        "tenant": tenant.name,
        "status": tenant.status,
        "windows_served": (len(samples) // tenant.spec.window_tasks),
        "migrations": tenant.migrations,
        "reschedules": tenant.reschedules,
        "shards": list(tenant.shard_history),
        "mean_latency_s": latency(stats[0]),
        "p50_latency_s": latency(stats[1]),
        "p95_latency_s": latency(stats[2]),
        "max_latency_s": latency(stats[3]),
    }


def assert_fleet_report_equals_old_arithmetic(router, report):
    window_log = old_window_log(router)
    assert [(r.tick, r.tenant, r.shard, r.latency_s)
            for r in router.window_log] == [
        (w["tick"], w["tenant"], w["shard"], w["latency_s"])
        for w in window_log]
    tables = old_tenant_tables(router, window_log)
    assert sum(1 for samples, _ in tables.values() if samples) > 1

    survivors, ratios = [], []
    for name, tenant in router.tenants.items():
        samples, starts = tables[name]
        metric = report.tenants[name]
        stats, row = old_tenant_row(tenant, samples)
        assert (metric.mean_latency_s, metric.p50_latency_s,
                metric.p95_latency_s, metric.max_latency_s) == stats
        assert metric.to_dict() == row
        assert list(metric.to_dict()) == list(row)  # key order is bytes
        assert tenant.slowdowns() == old_slowdowns(samples, starts)
        if tenant.status == "completed":
            survivors.extend(samples)
            ratios.extend(old_slowdowns(samples, starts))
    assert survivors
    assert report.surviving_p95_s == percentile(survivors, 95.0)
    assert report.surviving_p95_slowdown == percentile(ratios, 95.0)
    assert {name: shard["windows_served"]
            for name, shard in report.shards.items()} == {
        shard.name: sum(1 for w in window_log if w["shard"] == shard.name)
        for shard in router.shards}
    return window_log, tables


def old_tier_row(tier, arrivals, slowdowns):
    def ratio(value):
        return round(value, 9) if slowdowns else "n/a"

    good = sum(1 for s in slowdowns if 0.0 < s <= tier.slo_slowdown)
    met, p50, p95, p99 = (
        (sum(1 for s in slowdowns if s <= tier.slo_slowdown)
         / len(slowdowns),
         percentile(slowdowns, 50.0), percentile(slowdowns, 95.0),
         percentile(slowdowns, 99.0))
        if slowdowns else (0.0, 0.0, 0.0, 0.0))
    return (met, p50, p95, p99), {
        "tier": tier.name,
        "slo_slowdown": tier.slo_slowdown,
        "arrivals": len(arrivals),
        "offered_windows": sum(a.windows for a in arrivals),
        "served_windows": len(slowdowns),
        "goodput_windows": good,
        "goodput_tasks": good * tier.window_tasks,
        "attainment": ratio(met),
        "p50_slowdown": ratio(p50),
        "p95_slowdown": ratio(p95),
        "p99_slowdown": ratio(p99),
    }


# ----------------------------------------------------------------------
# Oracle
# ----------------------------------------------------------------------
@ATTRIBUTION
def test_chaos_soak_fleet_report_equals_the_old_arithmetic(attribution):
    router, report = chaos_soak(attribution)
    assert report.counts["failover"] == 3
    _, tables = assert_fleet_report_equals_old_arithmetic(router, report)
    # The soak has tenants on their second and third placement segment.
    assert max(len(starts) for _, starts in tables.values()) == 3
    assert all((row.blame is not None) == attribution
               for row in router.window_log)


@ATTRIBUTION
def test_overload_soak_reports_equal_the_old_arithmetic(attribution):
    router, result, report = overload_soak(attribution)
    window_log, _ = assert_fleet_report_equals_old_arithmetic(
        router, result.fleet_report)

    # No reschedule happens in this soak, so a window's reference is
    # its placement's - which is all the timelines say about it, to 9
    # decimals; the slowdown divides by the unrounded one.
    assert not any(t.reschedules for t in router.tenants.values())
    placed = {}
    references = []
    events = iter(router.timeline)
    for row in router.window_log:
        for event in events:
            if event["event"] in ("place", "migrate"):
                placed[event["tenant"], event["shard"]] = (
                    event["isolated_s"])
            if event["tick"] > row.tick:
                break
        assert round(row.isolated_s, 9) == placed[row.tenant, row.shard]
        references.append(row.isolated_s)

    spec = FleetOverloadScenario().spec()
    by_tier = {tier.name: [] for tier in spec.tiers}
    for window, reference in zip(window_log, references):
        by_tier[result.arrivals[window["tenant"]].tier].append(
            window["latency_s"] / reference)
    assert sum(1 for slowdowns in by_tier.values() if slowdowns) > 1
    for tier in spec.tiers:
        summary = report.tiers[tier.name]
        stats, row = old_tier_row(
            tier,
            [a for a in result.arrivals.values() if a.tier == tier.name],
            by_tier[tier.name])
        assert (summary.attainment, summary.p50_slowdown,
                summary.p95_slowdown, summary.p99_slowdown) == stats
        assert summary.to_dict() == row
        assert list(summary.to_dict()) == list(row)
    assert report.goodput_tasks == sum(
        row["goodput_tasks"] for row in (
            report.tiers[tier.name].to_dict() for tier in spec.tiers))


def test_blame_total_series_is_the_resummed_one():
    """The per-tick ``blame.attributed_total`` point used to re-sum
    every matrix harvested so far; the running total that replaced it
    performs the same additions in the same order."""
    with capture() as cap:
        router, report = chaos_soak(attribution=True)
    series = cap.metrics.series.series("blame.attributed_total")
    assert len(series) == report.ticks
    for tick, value in series:
        assert value == sum(row.blame.attributed
                            for row in router.window_log
                            if row.tick <= tick)
    assert series[-1][1] > 0.0
    assert report.attribution["attributed_total"] == round(
        series[-1][1], 9)
    assert report.attribution["windows"] == len(router.window_log)


# ----------------------------------------------------------------------
# Summaries on read
# ----------------------------------------------------------------------
def test_closed_generations_are_summarised_only_when_read():
    router, report = chaos_soak(attribution=False)
    closed = [s for shard in router.shards for s in shard.closed_servers]
    assert len(closed) == len(router.shards) + 1  # one crash + rejoin
    metrics = list(report.tenants.values())
    assert not any("samples" in vars(m.latency) for m in metrics)
    served = next(m for m in metrics if m.windows_served)
    assert served.p95_latency_s >= served.p50_latency_s > 0.0
    assert "samples" in vars(served.latency)


# ----------------------------------------------------------------------
# Identity
# ----------------------------------------------------------------------
def test_every_holder_keeps_the_row_the_server_wrote(monkeypatch):
    absorb = FleetRouter._absorb
    harvested = []

    def spy(router, shard, tick, event):
        absorb(router, shard, tick, event)
        if event["event"] == "window":
            name = event["tenant"]
            row = shard.server.records[name].history[-1]
            assert row is router.window_log[-1]
            assert row is router.tenants[name].windows[-1]
            assert (row.tick, row.tenant, row.shard) == (
                tick, name, shard.name)
            assert (row.window_index, row.latency_s) == (
                event["window"], event["latency_s"])
            harvested.append(row)

    monkeypatch.setattr(FleetRouter, "_absorb", spy)
    router, result, _ = overload_soak(attribution=False)
    assert result.samples is router.window_log
    assert len(harvested) == len(result.samples) > 0
    assert all(a is b for a, b in zip(harvested, result.samples))
    assert sum(t.windows_served for t in router.tenants.values()) == len(
        result.samples)
