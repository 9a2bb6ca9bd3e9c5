"""A plan solves when someone can use the answer.

A ``CachedPlan`` is built from the two profiling tables alone;
``singles`` (all a one-class partition cap can ever grant) come from
the interference table, and ``optimization`` - BT-Optimizer's ranked
list plus the packing candidates - is solved by its first reader, once.
The solved list is the reference: ``singles`` must be its one-class
members, in its order, with its predictions.  Each way the derivation
could go wrong is seeded as a mutant that the same comparison (or the
pin beside it) must tell apart.
"""

import pytest

import repro.core.plan_cache as plan_cache
from repro.apps.synthetic import build_synthetic_application
from repro.core.plan_cache import (
    CachedPlan,
    PlanCache,
    single_class_candidates,
)
from repro.obs import capture
from repro.soc import get_platform

from tests.solve_oracle import count_solves, solved_singles

PLATFORMS = ("pixel7a", "oneplus11", "jetson_orin_nano", "raspberry_pi5")


def facts(candidates):
    return [(c.schedule, c.predicted_latency_s, c.gapness_s)
            for c in candidates]


def plans(platform_name):
    platform = get_platform(platform_name, seed=7)
    cache = PlanCache(platform)
    for seed, stage_count in ((11, 2), (12, 3), (13, 5), (14, 7)):
        yield platform, cache.plan_for(build_synthetic_application(
            seed=seed, stage_count=stage_count))


@pytest.mark.parametrize("k", [1, 3, 8, 20])
@pytest.mark.parametrize("platform_name", PLATFORMS)
def test_singles_are_the_one_class_members_of_the_solved_list(
        monkeypatch, platform_name, k):
    monkeypatch.setattr(plan_cache, "PLAN_K", k)
    solved = count_solves(monkeypatch)
    for platform, plan in plans(platform_name):
        singles = plan.singles
        assert plan.within(1) is singles
        assert not solved                      # the table was enough
        assert ({c.schedule.assignments[0] for c in singles}
                == set(platform.schedulable_classes()))
        assert [c.rank for c in singles] == list(range(len(singles)))
        assert facts(singles) == facts(solved_singles(plan))
        assert solved == [plan.application.name]
        del solved[:]


def test_the_solved_list_is_kept_and_every_cap_reads_it(monkeypatch):
    solved = count_solves(monkeypatch)
    (_, plan), *_ = plans("pixel7a")
    everything = plan.within(None)
    assert everything == plan.optimization.candidates
    assert [c.rank for c in everything] == list(range(len(everything)))
    for cap in (2, 3, 4):
        assert plan.within(cap) == [
            c for c in everything if len(c.schedule.class_set) <= cap]
    assert any(len(c.schedule.class_set) == 2 for c in plan.within(2))
    assert plan.optimization is plan.optimization
    assert solved == [plan.application.name]


def test_the_solve_is_a_plan_cache_span_naming_the_application():
    platform = get_platform("pixel7a", seed=7)
    app = build_synthetic_application(seed=11, stage_count=3)
    with capture() as cap:
        plan = PlanCache(platform).plan_for(app)
        plan.singles
        built = {e.name for e in cap.events}
        plan.optimization
    assert "plan_cache.build" in built
    assert not any(name.startswith(("solver.", "plan_cache.solve"))
                   for name in built)
    by_id = {e.event_id: e for e in cap.events}
    (solve,) = [e for e in cap.events if e.name == "plan_cache.solve"]
    assert solve.attr("application") == app.name
    (optimize,) = [e for e in cap.events if e.name == "solver.optimize"]
    assert by_id[optimize.parent_id] is solve
    # ... and the build keeps parenting the profiler.
    outermost = [e for e in cap.events if e.category == "profiler"
                 and by_id[e.parent_id].category != "profiler"]
    assert outermost and all(
        by_id[e.parent_id].name == "plan_cache.build" for e in outermost)


# ----------------------------------------------------------------------
class TestSeededMutantsAreKilled:
    """Each mutant is another ``singles``; the comparison of the first
    test must tell it apart on some shipped platform."""

    @staticmethod
    def survives(monkeypatch, singles):
        monkeypatch.setattr(CachedPlan, "singles", property(singles))
        return all(
            facts(plan.singles) == facts(solved_singles(plan))
            for platform_name in PLATFORMS
            for _, plan in plans(platform_name))

    def test_the_shipped_singles_survive(self, monkeypatch):
        assert self.survives(monkeypatch, lambda plan: (
            single_class_candidates(
                plan.application, plan.interference, plan.schedulable)))

    def test_ordered_by_class_name_only(self, monkeypatch):
        assert not self.survives(monkeypatch, lambda plan: sorted(
            single_class_candidates(
                plan.application, plan.interference, plan.schedulable),
            key=lambda c: c.schedule.assignments[0]))

    def test_priced_on_the_isolated_table(self, monkeypatch):
        assert not self.survives(monkeypatch, lambda plan: (
            single_class_candidates(
                plan.application, plan.isolated, plan.schedulable)))

    def test_built_over_every_pu_class_of_the_soc(self, monkeypatch):
        # oneplus11's little cluster is profiled but not schedulable.
        assert not self.survives(monkeypatch, lambda plan: (
            single_class_candidates(
                plan.application, plan.interference,
                plan.interference.pu_classes)))

    def test_a_solve_that_is_not_kept(self, monkeypatch):
        # What the "kept" pin above catches: this mutant pays twice.
        monkeypatch.setattr(CachedPlan, "optimization", property(
            CachedPlan.__dict__["optimization"].func))
        solved = count_solves(monkeypatch)
        (_, plan), *_ = plans("pixel7a")
        assert plan.optimization is not plan.optimization
        assert len(solved) == 2
