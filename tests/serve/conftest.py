"""Shared fixtures for the serving-layer tests.

Profiling is the expensive step, so the plan cache and its artifacts
are built once per test session and shared read-only.
"""

import pytest

from repro.apps.synthetic import build_synthetic_application
from repro.core.plan_cache import PlanCache
from repro.serve import server as server_module
from repro.soc import get_platform


@pytest.fixture
def patience_one(monkeypatch):
    """Evict after one drifted window with no viable switch (as
    shipped: two), so a short soak reaches the eviction fallback."""
    monkeypatch.setattr(server_module, "PATIENCE", 1)


@pytest.fixture(scope="session")
def platform():
    return get_platform("pixel7a", seed=7)


@pytest.fixture(scope="session")
def plan_cache(platform):
    return PlanCache(platform)


@pytest.fixture(scope="session")
def app():
    return build_synthetic_application(seed=11, stage_count=3)


@pytest.fixture(scope="session")
def plan(plan_cache, app):
    return plan_cache.plan_for(app)


def single_class_schedule(plan, pu_class):
    """The packing candidate pinned to one PU class."""
    for candidate in plan.singles:
        if candidate.schedule.class_set == {pu_class}:
            return candidate.schedule
    raise AssertionError(f"no single-class candidate for {pu_class!r}")
