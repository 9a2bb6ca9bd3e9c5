"""Stepping: the externally-clocked server surface the fleet drives.

The server has no thread - the caller owns the clock - so these tests
run every tick inline and can observe each admission, withdrawal, and
rollback synchronously.
"""

import pytest

from repro.errors import ServeError
from repro.serve.admission import ADMIT
from repro.serve.tenant import (
    COMPLETED,
    EVICTED,
    FAILED,
    RUNNING,
    TenantSpec,
)
from repro.soc.interference import ExternalLoad

from tests.serve.conftest import bare_server


@pytest.fixture
def server(platform, plan_cache):
    return bare_server(platform, plan_cache)


def _spec(app, name="t", **kwargs):
    kwargs.setdefault("windows", 2)
    kwargs.setdefault("window_tasks", 4)
    return TenantSpec(name=name, application=app, **kwargs)


class TestLifecycle:
    def test_admit_step_complete(self, server, app):
        decision = server.try_admit(_spec(app), tick=0)
        assert decision.action == ADMIT
        record = server.records["t"]
        assert record.status == RUNNING
        drained = server.step(0)
        assert not drained
        assert server.step(1)
        assert record.status == COMPLETED
        assert record.windows_done == 2
        server.close()
        events = [e["event"] for e in server.timeline
                  if e["tenant"] == "t"]
        assert events == ["admit", "window", "window", "complete"]

    def test_close_detail_fails_live_tenants(self, server, app):
        server.try_admit(_spec(app, windows=30), tick=0)
        server.step(0)
        server.close("shard crashed at tick 1")
        assert server.records["t"].status == FAILED
        assert (server.records["t"].status_detail
                == "shard crashed at tick 1")


class TestGuards:
    def test_duplicate_name_rejected_within_a_generation(
        self, server, app
    ):
        server.try_admit(_spec(app), tick=0)
        with pytest.raises(ServeError, match="already known"):
            server.try_admit(_spec(app), tick=1)


class TestWithdraw:
    def test_withdraw_releases_the_partition(self, server, app):
        server.try_admit(_spec(app, windows=10), tick=0)
        server.step(0)
        record = server.withdraw("t", "fleet failover", tick=1)
        assert record.status == EVICTED
        assert record.status_detail == "fleet failover"
        assert "t" not in server.placement.partitions
        assert server.running_records() == {}
        # The name stays burned for this generation.
        assert server.knows_tenant("t")

    def test_withdraw_unknown_tenant_rejected(self, server):
        with pytest.raises(ServeError, match="not a live tenant"):
            server.withdraw("ghost", "nope", tick=0)

    def test_withdraw_completed_tenant_rejected(self, server, app):
        server.try_admit(_spec(app), tick=0)
        server.step(0)
        server.step(1)
        with pytest.raises(ServeError, match="not a live tenant"):
            server.withdraw("t", "too late", tick=2)


class TestRescind:
    def test_rescind_erases_the_admission(self, server, app):
        server.try_admit(_spec(app), tick=0)
        server.rescind("t")
        assert "t" not in server.records
        assert "t" not in server.placement.partitions
        assert not server.knows_tenant("t")
        # Unlike withdraw, rescind frees the name for reuse: the fleet
        # retries smaller failover batches against the same shard.
        decision = server.try_admit(_spec(app), tick=0)
        assert decision.action == ADMIT

    def test_rescind_unknown_tenant_rejected(self, server):
        with pytest.raises(ServeError, match="unknown tenant"):
            server.rescind("ghost")


class TestAdmit:
    def test_admit_deploys_a_held_decision(self, server, app):
        spec = _spec(app)
        decision = server.admission.evaluate(
            spec, server.placement, server.running_records())
        server.admit(spec, 0, decision)
        assert server.records["t"].status == RUNNING
        assert server.records["t"].schedule is decision.candidate.schedule
        assert list(server.running_records()) == ["t"]

    def test_admit_refuses_anything_but_an_admit(self, server, app):
        server.try_admit(_spec(app, name="holder",
                               required_classes={"gpu"}), tick=0)
        spec = _spec(app, required_classes={"gpu"})
        decision = server.admission.evaluate(
            spec, server.placement, server.running_records())
        assert decision.action != ADMIT
        with pytest.raises(ServeError, match="cannot deploy"):
            server.admit(spec, 0, decision)
        assert not server.knows_tenant("t")

    def test_admit_requires_a_fresh_name(self, server, app):
        decision = server.try_admit(_spec(app), tick=0)
        with pytest.raises(ServeError, match="already known"):
            server.admit(_spec(app), 0, decision)


class TestRunningOrder:
    def test_running_records_follow_admission_order(
        self, platform, plan_cache, app
    ):
        """The maintained running view must read exactly like the
        records filtered by status and sorted by admission order."""
        server = bare_server(platform, plan_cache, max_impact_ratio=1e9)

        def derived():
            running = [r for r in server.records.values()
                       if r.status == RUNNING]
            running.sort(key=lambda r: r.admission_order)
            return [r.name for r in running]

        for index, cls in enumerate(["gpu", "big", "little"]):
            decision = server.try_admit(
                _spec(app, name=f"t{index}", windows=3 - index,
                      required_classes={cls}), tick=0)
            assert decision.action == ADMIT
            assert list(server.running_records()) == derived()
        server.withdraw("t1", "test", tick=0)
        assert list(server.running_records()) == derived() == ["t0", "t2"]
        server.rescind("t0")
        server.try_admit(_spec(app, name="t0", windows=3), tick=0)
        assert list(server.running_records()) == derived() == ["t2", "t0"]
        for tick in range(3):
            server.step(tick)
            assert list(server.running_records()) == derived()
            assert (set(server.running_records())
                    == set(server.placement.partitions))
        assert server.running_records() == {}


@pytest.mark.usefixtures("patience_one")
class TestEvictedMidBatch:
    """A tenant served early in a tick's batch can evict one whose
    window - already simulated - is settled later in the same batch.
    That window counts; the victim must end EVICTED (or COMPLETED if it
    was its last window), never FAILED on "holds no placement"."""

    def _crowded(self, platform, plan_cache, app, victim_windows):
        server = bare_server(platform, plan_cache, max_impact_ratio=1e9)
        # The sufferer is admitted first (served first in every batch)
        # and outranks everyone; the SoC is then packed so no re-rank
        # can escape and the eviction fallback has to fire.
        classes = sorted(platform.schedulable_classes())
        for index, cls in enumerate(classes):
            decision = server.try_admit(_spec(
                app, name="sufferer" if index == 0 else f"low{index}",
                priority=5 if index == 0 else 0,
                windows=(10 if index < len(classes) - 1
                         else victim_windows),
                required_classes={cls},
            ), tick=0)
            assert decision.action == ADMIT
        server.step(0)
        server.inject_drift(ExternalLoad({classes[0]: 0.95}, 16.0), None)
        server.step(1)
        victim = server.records[f"low{len(classes) - 1}"]
        events = [e["event"] for e in server.timeline
                  if e["tenant"] == victim.name and e["tick"] == 1]
        return server, victim, events

    def test_last_window_completes_the_evicted_tenant(
        self, platform, plan_cache, app
    ):
        server, victim, events = self._crowded(
            platform, plan_cache, app, victim_windows=2)
        assert events == ["evict", "window", "complete"]
        assert victim.status == COMPLETED
        assert victim.windows_done == 2
        self._consistent(server, victim)

    def test_earlier_window_counts_and_the_tenant_stays_evicted(
        self, platform, plan_cache, app
    ):
        server, victim, events = self._crowded(
            platform, plan_cache, app, victim_windows=6)
        assert events == ["evict", "window"]
        assert victim.status == EVICTED
        assert victim.windows_done == 2
        self._consistent(server, victim)

    @staticmethod
    def _consistent(server, victim):
        assert victim.name not in server.placement.partitions
        assert victim.name not in server.running_records()
        assert not [e for e in server.timeline if e["event"] == "fail"]
        server.step(2)
        assert victim.windows_done == 2
        server.close()
        assert server.records[victim.name].status == victim.status
