"""A window is simulated once per (deployment, co-load, window size).

The plan cache hands out one ``Deployment`` per (application, schedule)
- executor, offered load, remembered window results - and the server
serves a window its deployment has already produced, for any tenant,
without re-running the DES.  The oracle is the server with every host
memo off (``tests.memo_off``, a test-only switch - there is no
production one): every report, timeline, span list and exported trace
must come out byte-identical either way.
"""

import copy
import dataclasses
import json

import pytest

import repro.core.plan_cache as plan_cache_module
from repro.core.plan_cache import tenant_offered_load
from repro.stage import Application, Stage
from repro.errors import PipelineError
from repro.obs import capture
from repro.runtime.simulator import SimulatedPipelineExecutor
from repro.fleet import serve_fleet
from repro.serve import SoakScenario
from repro.serve.admission import ADMIT
from repro.serve.tenant import COMPLETED, FAILED, TenantSpec
from repro.soc.interference import ExternalLoad

from tests.serve.conftest import (
    bare_server,
    both_ways,
    count_simulated,
    drifting_soak,
)
from tests.soaks import run_soak


# ----------------------------------------------------------------------
def served_and_simulated(monkeypatch, drive):
    """``drive`` both ways (:func:`both_ways`); returns (shipped bytes,
    windows served, windows simulated with the memos on)."""
    shipped, (simulated, _), (oracle_simulated, _) = both_ways(
        monkeypatch, drive)
    served = sum(1 for e in json.loads(shipped)["timeline"]
                 if e["event"] == "window")
    assert oracle_simulated >= served  # the memo-off run really ran
    return shipped, served, simulated


class TestSameBytes:
    def test_drift_turning_on_and_off(self, monkeypatch):
        shipped, served, simulated = served_and_simulated(
            monkeypatch, drifting_soak(reschedule=False))
        # Three tenants, two drift edges each way: most ticks change
        # nothing a tenant can see, and a co-load that comes back (the
        # second drift turning off) is remembered too.
        assert 0 < simulated < served / 3

    def test_reschedule_switch_rebuilds_the_executor(self, monkeypatch):
        shipped, served, simulated = served_and_simulated(
            monkeypatch, drifting_soak(reschedule=True))
        timeline = json.loads(shipped)["timeline"]
        assert any(e["event"] == "reschedule" for e in timeline)
        assert 0 < simulated < served

    def test_attribution_armed(self, monkeypatch):
        shipped, _, _ = served_and_simulated(
            monkeypatch, drifting_soak(reschedule=True, attribution=True))
        attribution = json.loads(shipped)["report"]["attribution"]
        assert attribution["windows"] > 0

    def test_eviction_mid_batch(self, monkeypatch, patience_one, platform,
                                app):
        def drive():
            # PR 12's case: the first-served tenant evicts one whose
            # window for this tick is already in the batch.
            # A plan cache per run, so plan builds land in both traces.
            server = bare_server(platform, max_impact_ratio=1e9)
            classes = sorted(platform.schedulable_classes())
            for index, cls in enumerate(classes):
                decision = server.try_admit(TenantSpec(
                    name="sufferer" if index == 0 else f"low{index}",
                    application=app, window_tasks=4,
                    priority=5 if index == 0 else 0,
                    windows=10 if index < len(classes) - 1 else 6,
                    required_classes={cls},
                ), tick=0)
                assert decision.action == ADMIT
            server.step(0)
            server.step(1)
            server.inject_drift(ExternalLoad({classes[0]: 0.95}, 16.0), None)
            for tick in range(2, 14):
                server.step(tick)
            server.close()
            return server, None

        shipped, served, simulated = served_and_simulated(
            monkeypatch, drive)
        timeline = json.loads(shipped)["timeline"]
        assert any(e["event"] == "evict" for e in timeline)
        assert not any(e["event"] == "fail" for e in timeline)
        assert 0 < simulated < served

    def test_a_tick_mixing_remembered_and_simulated_windows(
            self, monkeypatch, platform, app):
        # A tenant is replaced by a twin on the same deployment that
        # streams bigger windows: the survivor's co-load key does not
        # move (remembered) while the twin's window size is new to the
        # deployment and must run.  The tracer has to see the tick's
        # windows in batch order all the same.
        def drive():
            server = bare_server(platform)
            classes = sorted(platform.schedulable_classes())[:2]

            def admit(name, cls, tick, window_tasks=4):
                assert server.try_admit(TenantSpec(
                    name=name, application=app, windows=12,
                    window_tasks=window_tasks, required_classes={cls},
                ), tick=tick).action == ADMIT

            admit("survivor", classes[0], 0)
            admit("first", classes[1], 0)
            for tick in range(3):
                server.step(tick)
            server.withdraw("first", "replaced by its twin", tick=3)
            admit("twin", classes[1], 3, window_tasks=5)
            for tick in range(3, 6):
                server.step(tick)
            server.close()
            return server, None

        _, _, simulated = served_and_simulated(monkeypatch, drive)
        # Ticks 0 and 3 are the only ones that simulate: both tenants
        # at first, then the twin alone.
        assert simulated == 3

    def test_a_window_failing_in_the_batch(self, monkeypatch, platform,
                                           app):
        # The DES refuses the doomed tenant's window once the drift is
        # on - a co-load change, so both ways simulate (and fail) it.
        original = SimulatedPipelineExecutor.run

        def run(self, n_tasks, **kwargs):
            load = kwargs.get("external_load")
            if (kwargs.get("tenant") == "doomed" and load is not None
                    and load.demand_gbps >= 16.0):
                raise PipelineError("injected window failure")
            return original(self, n_tasks, **kwargs)

        monkeypatch.setattr(SimulatedPipelineExecutor, "run", run)

        def drive():
            server = bare_server(platform)
            for name in ("steady", "doomed", "late"):
                assert server.try_admit(TenantSpec(
                    name=name, application=app, windows=9,
                    window_tasks=4), tick=0).action == ADMIT
            for tick in range(10):
                if tick == 4:
                    server.inject_drift(ExternalLoad(demand_gbps=16.0), None)
                server.step(tick)
            server.close()
            return server, None

        shipped, served, simulated = served_and_simulated(
            monkeypatch, drive)
        out = json.loads(shipped)
        fails = [e for e in out["timeline"] if e["event"] == "fail"]
        assert [(e["tenant"], e["tick"]) for e in fails] == [
            ("doomed", 4)]
        assert out["records"]["doomed"][0] == FAILED
        assert out["records"]["late"][0] == COMPLETED
        assert 0 < simulated < served


# ----------------------------------------------------------------------
class TestResidencyLifetime:
    """A live placement holds the deployment it is served on and lets
    go of it when released; the plan cache keeps it warm."""

    @pytest.fixture
    def server(self, platform):
        # Its own cache: what is simulated depends on what the cache's
        # deployments have already served.  No rescheduling: a SWITCH
        # lets go of the deployment until the next window.
        return bare_server(platform, reschedule=False)

    @staticmethod
    def _admit(server, app, name, windows=6):
        spec = TenantSpec(name=name, application=app, windows=windows,
                          window_tasks=4)
        assert server.try_admit(spec, tick=0).action == ADMIT

    def test_executor_is_built_once_and_kept(self, server, app):
        self._admit(server, app, "a")
        self._admit(server, app, "b")
        assert server._deployments == {}   # nothing until a window
        server.step(0)
        held = dict(server._deployments)
        assert sorted(held) == ["a", "b"]
        executors = {name: d.executor for name, d in held.items()}
        server.step(1)
        server.step(2)
        for name, deployment in server._deployments.items():
            assert deployment is held[name]
            assert deployment.executor is executors[name]
            assert len(deployment._results) == 1
        # ... and they are the cache's, not the server's.
        for name, record in server.running_records().items():
            assert server.plan_cache.deployment_for(
                app, record.schedule) is held[name]

    def test_unchanged_tick_simulates_nothing(self, server, app,
                                              monkeypatch):
        counter = count_simulated(monkeypatch)
        self._admit(server, app, "a")
        self._admit(server, app, "b")
        server.step(0)
        assert counter["windows"] == 2
        server.step(1)
        server.step(2)
        assert counter["windows"] == 2
        # A newcomer changes what the incumbents see - once.
        self._admit(server, app, "c")
        server.step(3)
        assert counter["windows"] == 5
        server.step(4)
        assert counter["windows"] == 5
        # When it leaves, the incumbents see what they saw before it
        # came: already served, nothing to simulate.
        server.withdraw("c", "test", tick=5)
        server.step(5)
        assert counter["windows"] == 5

    def test_release_leaves_nothing_behind(self, server, app):
        for name in ("done", "gone", "undone", "stays"):
            self._admit(server, app, name,
                        windows=2 if name == "done" else 6)
        server.step(0)
        assert len(server._deployments) == 4
        server.withdraw("gone", "test", tick=1)
        server.rescind("undone")
        server.step(1)                     # "done" completes here
        assert sorted(server._deployments) == ["stays"]
        assert sorted(server.running_records()) == ["stays"]
        server.close()
        assert server._deployments == {}
        # The cache still has all four, for whoever deploys them next.
        assert len(server.plan_cache._deployments) == 4

    def test_a_switch_starts_a_new_residency(self):
        # The memo-off run shares _deployment_of, so a stale executor
        # after a SWITCH would fool both runs alike: check it directly.
        scenario = SoakScenario(seed=7, windows=30)
        router = serve_fleet(scenario)
        for spec in scenario.tenants():
            router.submit(spec)
        router.open_stepped()
        server = router.shards[0].server
        record = server.records.get
        before = None
        for tick in range(30):
            router.step(tick)
            if before is None:
                before = server._deployments["tenant-drift"]
                deployed = record("tenant-drift").schedule
            if any(e["event"] == "reschedule" for e in server.timeline):
                break
        else:
            pytest.fail("the soak never rescheduled")
        assert deployed is not record("tenant-drift").schedule
        router.step(tick + 1)
        after = server._deployments["tenant-drift"]
        drifted = record("tenant-drift")
        assert after is not before
        assert before.executor.chunks == list(deployed.chunks())
        assert after.executor is not before.executor
        assert after.executor.chunks == list(drifted.schedule.chunks())
        assert after.offered.key == tenant_offered_load(
            drifted.spec.application, drifted.plan.isolated,
            drifted.schedule, server.platform).key
        assert after.offered.key != before.offered.key
        router.close_stepped()

    def test_a_finished_soak_holds_no_residency(self):
        server, _ = run_soak(SoakScenario(seed=7, windows=12))
        assert server._deployments == {}
        assert 0 < len(server.plan_cache._deployments) <= (
            plan_cache_module._DEPLOYMENTS_KEPT)


def heavier(application):
    """A different application under the same name: every stage does
    twice the arithmetic.  Stage names are kept, so the plan the cache
    shares by *name* still prices it."""
    return Application(application.name, [
        Stage(name=stage.name, kernels=stage.kernels,
              work=dataclasses.replace(stage.work,
                                       flops=stage.work.flops * 2.0))
        for stage in application.stages
    ])


class TestKeyedByTheApplicationObject:
    """Plans are shared by application *name*; a deployment is not - a
    pipeline runs its own application's work."""

    def test_same_name_different_work_keep_their_own_windows(
            self, platform, app):
        server = bare_server(platform)
        cls = sorted(platform.schedulable_classes())[0]
        apps = {"light": app, "heavy": heavier(app)}
        # One after the other on the same PU class: same plan, same
        # assignments, same (empty) co-load, same window size.
        for tick, name in enumerate(apps):
            assert server.try_admit(TenantSpec(
                name=name, application=apps[name], windows=1,
                window_tasks=4, required_classes={cls},
            ), tick=tick).action == ADMIT
            server.step(tick)
        measured = {}
        for name, application in apps.items():
            record = server.records[name]
            assert record.status == COMPLETED
            fresh = SimulatedPipelineExecutor(
                application, record.schedule.chunks(), platform)
            measured[name] = record.history[0].measured_latency_s
            assert measured[name] == fresh.run(
                4, record_trace=True,
                external_load=ExternalLoad()).steady_interval_s
        assert (server.records["light"].schedule.assignments
                == server.records["heavy"].schedule.assignments)
        assert measured["heavy"] > measured["light"]
        assert server.plan_cache.stats()["entries"] == 1
        assert len(server.plan_cache._deployments) == 2
        server.close()


class TestSharedSpansStayUntouched:
    def test_a_remembered_result_is_tagged_where_it_is_read(
            self, platform, app):
        # Two tenants, one after the other, are served the very same
        # result object; each must read as its own in trace_spans and
        # in an exported trace, and the shared span list must come out
        # of all of it exactly as the DES left it: untagged.
        server = bare_server(platform)
        cls = sorted(platform.schedulable_classes())[0]
        with capture() as cap:
            for tick, name in enumerate(("first", "second")):
                assert server.try_admit(TenantSpec(
                    name=name, application=app, windows=1,
                    window_tasks=4, required_classes={cls},
                ), tick=tick).action == ADMIT
                server.step(tick)
                if name == "first":
                    (deployment,) = (
                        server.plan_cache._deployments.values())
                    (result,) = deployment._results.values()
                    spans = result.spans
                    pristine = copy.deepcopy(spans)
                    identities = [id(span) for span in spans]
            read = server.trace_spans
        assert len(deployment._results) == 1   # second was remembered
        assert server._last_spans["first"] is spans
        assert server._last_spans["second"] is spans
        assert [span.tenant for span in read] == (
            ["first"] * len(spans) + ["second"] * len(spans))
        assert [dataclasses.replace(span, tenant=None)
                for span in read] == pristine * 2
        chunk_spans = [event for event in cap.events
                       if event.name.startswith("chunk")]
        assert {dict(event.attrs)["tenant"] for event in chunk_spans} == {
            "first", "second"}
        assert {event.track.split("/")[0] for event in chunk_spans} == {
            "first", "second"}
        assert spans == pristine
        assert [id(span) for span in spans] == identities
        assert {span.tenant for span in spans} == {None}
        server.close()


class TestDrainedMatchesTheScan:
    def test_after_every_tick(self, platform, plan_cache, app):
        # The full scan over every record ever seen is the oracle for
        # the live-state answer.
        server = bare_server(platform, plan_cache)
        # Eight tenants on four classes: the first four are admitted.
        for index in range(8):
            server.try_admit(TenantSpec(
                name=f"t{index}", application=app,
                windows=2 + index % 3, window_tasks=4), tick=0)
        seen_false = False
        for tick in range(20):
            drained = server.step(tick)
            assert drained == all(
                record.done for record in server.records.values())
            seen_false = seen_false or not drained
            if tick == 3 and server.try_admit(TenantSpec(
                    name="late", application=app, windows=2,
                    window_tasks=4), tick=tick).action == ADMIT:
                assert not server._drained()
        assert seen_false and drained
        assert {r.status for r in server.records.values()} == {COMPLETED}
