"""Pytest root conftest: make ``src/`` importable without installation.

The offline environment lacks the ``wheel`` package needed for
``pip install -e .``; this mirrors an editable install.
"""

import os
import sys

import pytest

SRC = os.path.join(os.path.dirname(__file__), "src")
if SRC not in sys.path:
    sys.path.insert(0, SRC)


def pytest_addoption(parser):
    parser.addoption(
        "--sim-engine", choices=("vector", "reference"), default="vector",
        help="DES event loop of every executor a test builds without "
             "naming one: the compiled kernel (default) or the reference "
             "loop in tests/runtime/reference_engine.py",
    )


def pytest_configure(config):
    """The reference-loop oracle's switch.  ``--sim-engine=reference``
    wraps ``SimulatedPipelineExecutor``'s constructor so every executor
    of the session - also those the serving layer builds - runs the
    reference loop; there is no production switch."""
    from tests.runtime import reference_engine

    reference_engine.use(config.getoption("--sim-engine"))


def pytest_report_header(config):
    return f"sim engine: {config.getoption('--sim-engine')}"


@pytest.fixture(autouse=True)
def _repro_check_gate():
    """Under ``REPRO_CHECK=1`` every test doubles as a concurrency
    audit: any violation the instrumented runtime records into the
    *global* log during the test fails it.  Deliberate-violation tests
    capture into a local log via ``runtime_checks.collecting()`` and so
    stay exempt.  Without REPRO_CHECK this fixture is a no-op.
    """
    from repro.runtime import checks as runtime_checks

    if not runtime_checks.checks_enabled():
        yield
        return
    log = runtime_checks.global_log()
    before = len(log)
    yield
    fresh = log.since(before)
    assert not fresh, (
        "concurrency checker recorded violations during this test: "
        + "; ".join(str(v.to_dict()) for v in fresh)
    )


@pytest.fixture
def always_solve(monkeypatch):
    """The lazy-plan oracle's switch.  Calling the returned function
    makes every ``CachedPlan`` answer ``singles`` by filtering its
    *solved* list for one-class schedules for the rest of the test, so
    a capped admission solves every plan it prices and picks among the
    solver's candidate objects, offline ranks included - the eager
    design the table-only singles replaced, kept only here (there is no
    production switch) so the suites can run one soak both ways and
    compare bytes."""
    def arm():
        from repro.core.plan_cache import CachedPlan
        from tests.solve_oracle import solved_singles

        monkeypatch.setattr(
            CachedPlan, "singles", property(solved_singles))
    return arm


@pytest.fixture
def tick_raises():
    """Calling the returned function makes tick number ``tick`` of a
    ``PipelineServer`` or ``FleetRouter`` (both keep the tick body in
    ``_tick``) raise ``error`` before doing any work."""
    def arm(stepped, tick, error):
        real_tick = stepped._tick

        def tick_or_raise(now):
            if now == tick:
                raise error
            real_tick(now)

        stepped._tick = tick_or_raise
    return arm
