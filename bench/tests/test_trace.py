"""The tracer: wrappers come off cleanly and the accounting is exact."""

import contextlib

from bench import trace
from bench.workloads import SMOKE, WORKLOADS


def _originals():
    return [vars(trace._owner(module, cls))[attr]
            for module, cls, attr, *_ in trace.TARGETS]


def test_install_uninstall_restores_the_same_objects():
    before = _originals()
    assert trace.installed() == []
    handle = trace.install(trace.Tracer())
    try:
        assert len(trace.installed()) == len(trace.TARGETS)
        assert all(now is not then
                   for now, then in zip(_originals(), before))
    finally:
        trace.uninstall(handle)
    assert trace.installed() == []
    assert all(now is then for now, then in zip(_originals(), before))


def test_tracing_context_uninstalls_on_error():
    try:
        with trace.tracing(trace.Tracer()):
            raise KeyError("boom")
    except KeyError:
        pass
    assert trace.installed() == []


def _sha(name, seed):
    workload = WORKLOADS[name].at_scale(SMOKE)
    inputs = workload.prepare(seed, {})
    ran = workload.run(inputs, workload.fresh(inputs), lambda: None,
                       contextlib.nullcontext)
    return workload.outcome(inputs, ran).sha256


def test_same_seed_same_report_different_seed_different():
    for name in ("fleet_overload", "paper_campaign"):
        assert _sha(name, 7) == _sha(name, 7)
        assert _sha(name, 7) != _sha(name, 8)


def test_traced_run_accounts_for_its_whole_wall_and_counts_exactly():
    workload = WORKLOADS["fleet_coldplan_chaos"].at_scale(SMOKE)
    inputs = workload.prepare(7, {})
    tracer = trace.Tracer()
    with trace.tracing(tracer):
        driver = workload.fresh(inputs)
        with tracer.span("bench.timed"):
            ran = workload.run(inputs, driver, lambda: None, tracer.span)
    outcome = workload.outcome(inputs, ran)
    own = tracer.self_by_name("bench.timed")
    root = tracer.duration(tracer.names.index("bench.timed"))
    assert abs(sum(own.values()) - root) <= 1e-6 * root
    assert min(own.values()) >= -1e-9
    # Counters kept by the wrappers agree with the program's report.
    assert tracer.counts["core.plan_cache_misses"] \
        == outcome.counts["core.plan_cache_misses"]
    assert tracer.counts["core.plan_cache_hits"] \
        == outcome.counts["core.plan_cache_hits"]
    assert tracer.counts["runtime.windows"] \
        == outcome.counts["served_windows"]
    assert tracer.calls("traffic.materialize") == outcome.ops_attempted
    # The aggregated leaf is counted, timed, and inside its callers.
    assert tracer.calls("core.schedule_predict") > 0
    assert 0 < tracer.total("core.schedule_predict") < root
