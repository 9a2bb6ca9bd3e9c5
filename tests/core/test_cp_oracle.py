"""The shipped optimizer against its oracle, the constraint search.

``BTOptimizer`` walks the contiguous schedule space and admits
schedules by the K-best branch-and-bound's own rule; ``CPOptimizer``
(``cp_optimizer.py``) poses the same levels 1-2 to ``repro.solver``.
Over generated tables - latencies on a coarse grid, so exact ties and
sub-1e-12 near-ties are common - and over the twelve cells of the
paper's campaign, the two results must be equal field for field and
float for float: candidates, ranks, gap threshold, utilization optimum
and the number of search phases.
"""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.apps import (
    build_alexnet_dense,
    build_alexnet_sparse,
    build_octree_application,
)
from repro.core import Application, Stage
from repro.core.optimizer import BTOptimizer
from repro.core.profiler import BTProfiler, ProfilingTable
from repro.errors import SchedulingError
from repro.eval.experiments.common import evaluation_platforms
from repro.soc import WorkProfile
from tests.core.cp_optimizer import CPOptimizer


def make_case(latencies):
    n, m = len(latencies), len(latencies[0])
    pus = tuple(f"pu{j}" for j in range(m))
    app = Application("oracle", [
        Stage.model_only(f"s{i}", WorkProfile(flops=1.0, bytes_moved=1.0))
        for i in range(n)
    ])
    table = ProfilingTable(
        application=app.name, platform="generated", mode="interference",
        entries={(f"s{i}", pus[j]): latencies[i][j]
                 for i in range(n) for j in range(m)},
        stage_names=app.stage_names, pu_classes=pus,
    )
    return app, table


def outcome(optimizer_class, app, table, **options):
    """The optimization result, or the error's text."""
    try:
        return optimizer_class(app, table, **options).optimize()
    except SchedulingError as error:
        return str(error)


@st.composite
def cases(draw):
    n = draw(st.integers(min_value=1, max_value=9))
    m = draw(st.integers(min_value=1, max_value=4))
    # Multiples of 1/3 sum to values one ulp apart; of 0.5, to exact ties.
    quantum = draw(st.sampled_from([0.5, 0.1, 1.0 / 3.0, 1e-3]))
    latencies = [
        [quantum * draw(st.integers(min_value=0, max_value=12))
         for _ in range(m)]
        for _ in range(n)
    ]
    bound = st.none() | st.floats(min_value=0.0, max_value=12.0)
    return latencies, {
        "k": draw(st.integers(min_value=1, max_value=25)),
        "gap_slack": draw(st.sampled_from([0.10, math.inf])),
        "max_chunk_time_s": draw(bound),
        "min_chunk_time_s": draw(st.none() | st.floats(
            min_value=0.0, max_value=2.0)),
    }


class TestAgainstTheConstraintSearch:
    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(cases())
    def test_generated_tables(self, case):
        latencies, options = case
        app, table = make_case(latencies)
        assert outcome(BTOptimizer, app, table, **options) \
            == outcome(CPOptimizer, app, table, **options)

    def test_a_sub_ulp_tie_is_settled_as_the_search_settles_it(self):
        """Two schedules of latencies 1e-13 apart: an exact sort puts
        the later, faster one first; the admission rule keeps the one
        met first."""
        app, table = make_case([[1.0, 1.0 - 1e-13]])
        walked = BTOptimizer(app, table, k=1, gap_slack=math.inf).optimize()
        assert walked == CPOptimizer(app, table, k=1,
                                     gap_slack=math.inf).optimize()
        assert walked.best.schedule.assignments == ("pu0",)


@pytest.fixture(scope="module")
def campaign_tables():
    builds = (build_alexnet_dense, build_alexnet_sparse,
              build_octree_application)
    tables = {}
    for platform in evaluation_platforms():
        profiler = BTProfiler(platform, repetitions=2)
        for build in builds:
            app = build()
            tables[app.name, platform.name] = (app, profiler.profile(
                app).restricted(platform.schedulable_classes()))
    return tables


def test_the_paper_campaign_cells(campaign_tables):
    assert len(campaign_tables) == 12
    for (app_name, platform), (app, table) in campaign_tables.items():
        walked = BTOptimizer(app, table).optimize()
        assert walked == CPOptimizer(app, table).optimize(), (
            app_name, platform)
        assert walked.solver_invocations in (2, 3)
        assert not walked.degraded
