"""Attribution-on determinism and the ``repro top`` dashboard.

The acceptance bar: fleet/traffic soak reports with attribution (and,
on the traffic side, per-tier burn alerting) enabled are byte-identical
across two runs, and ``repro top --json`` is deterministic for a given
(scenario, seed).
"""

import json

from repro.apps.synthetic import build_synthetic_application
from repro.cli import main
from repro.fleet import (
    ChaosSchedule,
    DegradeSpec,
    FleetConfig,
    FleetRouter,
    ShardSpec,
)
from repro.fleet.health import HealthConfig
from repro.obs.alerts import BurnRateRule
from repro.serve.tenant import TenantSpec
from repro.traffic import FleetOverloadScenario

from tests.soaks import drive, run_overload_soak


def _traffic_bytes(**kwargs):
    scenario = FleetOverloadScenario(ticks=16)
    _, report = run_overload_soak(scenario, admission=True, **kwargs)
    return json.dumps(report.to_dict(), sort_keys=True)


def _browned_out_fleet():
    """A small attributed fleet whose s1 browns out, run; the
    sustained breach fails s1's tenants over to s0."""
    router = FleetRouter(
        [ShardSpec("s0", platform_seed=7),
         ShardSpec("s1", platform_seed=7)],
        seed=7,
        config=FleetConfig(
            max_ticks=48,
            failover=True,
            health=HealthConfig(slo_factor=1.5, slo_breach_ticks=2),
            attribution=True,
        ),
        chaos=ChaosSchedule(degradations=[DegradeSpec(
            shard="s1", start_tick=4, end_tick=40,
            busy={"big": 0.9, "medium": 0.9, "little": 0.9,
                  "gpu": 0.9},
            demand_gbps=12.0,
        )]),
    )
    return drive(router, [TenantSpec(
        name=f"tenant-{index}",
        application=build_synthetic_application(
            seed=7 + index, stage_count=2,
        ),
        priority=1,
        windows=12,
        window_tasks=4,
    ) for index in range(4)])


class TestByteIdentity:
    def test_traffic_report_with_attribution_is_byte_identical(self):
        rule = BurnRateRule()
        first = _traffic_bytes(attribution=True, burn=rule)
        second = _traffic_bytes(attribution=True, burn=rule)
        assert first == second
        payload = json.loads(first)
        assert "attribution" in payload
        assert "alerts" in payload

    def test_fleet_report_with_attribution_is_byte_identical(self):
        reports = []
        for _ in range(2):
            report = _browned_out_fleet()
            reports.append(json.dumps(report.to_dict(),
                                      sort_keys=True))
        assert reports[0] == reports[1]
        assert json.loads(reports[0])["counts"]["failover"] >= 1

    def test_default_reports_carry_no_attribution_keys(self):
        payload = json.loads(_traffic_bytes())
        assert "attribution" not in payload
        assert "alerts" not in payload


class TestFleetAttribution:
    def test_attribution_summary_rides_in_the_report(self):
        data = _browned_out_fleet().to_dict()
        assert data["attribution"]["windows"] > 0
        assert isinstance(data["attribution"]["top_offenders"], list)
        assert "alerts" not in data


class TestTopCli:
    def _snapshot(self, capsys):
        assert main(["top", "--ticks", "12", "--json"]) == 0
        return capsys.readouterr().out

    def test_top_json_is_deterministic(self, capsys):
        assert self._snapshot(capsys) == self._snapshot(capsys)

    def test_top_json_shape(self, capsys):
        payload = json.loads(self._snapshot(capsys))
        assert payload["scenario"]["ticks"] == 12
        assert set(payload["shards"])
        assert set(payload["tiers"]) == {"gold", "silver", "bronze"}
        assert isinstance(payload["top_offenders"], list)
        assert len(payload["top_offenders"]) <= 5

    def test_top_watch_streams_ticks(self, capsys):
        assert main(["top", "--ticks", "12", "--watch"]) == 0
        out = capsys.readouterr().out
        assert "tick   0" in out
        assert "tick  11" in out
        assert "top interference offenders" in out
