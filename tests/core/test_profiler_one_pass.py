"""The one-pass profiler equals the profiler it replaced, bit for bit.

``ReferenceProfiler`` below is BT-Profiler written the old way and kept
as the oracle: the grid is walked once per mode, every cell re-derives
its roofline (once for itself, once per *other* PU class for the
interference condition's demand), and every repetition is one scalar
lognormal draw.  Over generated platforms, applications, repetition
counts and noise levels, everything the shipped profiler can be asked -
``profile_both``, per-mode ``profile``, a ``CampaignSession`` killed
and resumed half-way, the same session resumed again after losing an
arbitrary set of cells - must return the reference's means *and*
stddevs exactly, and leave the same spans and metrics behind.

Then the other direction: each way the one pass could be subtly wrong is
seeded as a mutant, and the same comparison must tell it apart.
"""

import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.soc.timer as timer_module
from repro.apps.synthetic import (
    build_bandwidth_bound_application,
    build_synthetic_application,
)
from repro.core import BetterTogether, CampaignSession
from repro.core.profiler import (
    INTERFERENCE,
    ISOLATED,
    MODES,
    BTProfiler,
    ProfilingTable,
)
from repro.obs import capture, metrics, tracer
from repro.soc import get_platform
from repro.soc.cost_model import pu_cost
from repro.soc.platform import Platform
from repro.soc.timer import MeasurementNoise

PLATFORMS = ("pixel7a", "oneplus11", "jetson_orin_nano",
             "jetson_orin_nano_lp", "raspberry_pi5")
REPETITIONS = (1, 2, 5, 30)
SIGMAS = (0.0, 0.02)


# ----------------------------------------------------------------------
# The oracle: the parent commit's arithmetic, call for call
# ----------------------------------------------------------------------
def reference_demand(platform, work, pu_class):
    breakdown = pu_cost(work, platform.pu(pu_class))
    return breakdown.demand_bw_gbps(work.bytes_moved)


def reference_true_time(platform, work, pu_class, co_load, other_demand):
    breakdown = pu_cost(work, platform.pu(pu_class))
    overlapped = max(breakdown.compute_s, breakdown.memory_s)
    demand = breakdown.demand_bw_gbps(work.bytes_moved)
    multiplier = platform.interference.speed_multiplier(
        pu_class=pu_class,
        memory_boundedness=breakdown.memory_boundedness,
        demand_gbps=demand,
        total_demand_gbps=demand + other_demand,
        co_load=co_load,
    )
    return overlapped / multiplier + breakdown.overhead_s


def reference_measure(platform, true_seconds, rng):
    sigma = platform.noise.sigma
    if sigma == 0.0:
        return true_seconds
    return true_seconds * rng.lognormal(mean=-0.5 * sigma**2, sigma=sigma)


class ReferenceProfiler:
    """The two-pass, per-sample profiler, spans and metrics included."""

    def __init__(self, platform, repetitions):
        self.platform = platform
        self.repetitions = repetitions

    def cell(self, application, stage_name, pu_class, mode):
        platform = self.platform
        with tracer().span("profiler.cell", "profiler",
                           stage=stage_name, pu=pu_class, mode=mode):
            work = application.stage(stage_name).work
            if mode == ISOLATED:
                co_load, other_demand = 0.0, 0.0
            else:
                co_load = 1.0
                other_demand = sum(
                    reference_demand(platform, work, other)
                    for other in platform.pu_classes()
                    if other != pu_class
                )
            true_seconds = reference_true_time(
                platform, work, pu_class, co_load, other_demand
            )
            rng = platform.noise.rng(
                platform.name, "profile", application.name, stage_name,
                pu_class, mode,
            )
            samples = [
                reference_measure(platform, true_seconds, rng)
                for _ in range(self.repetitions)
            ]
            mean = sum(samples) / len(samples)
            if len(samples) < 2:
                std = 0.0
            else:
                std = (sum((x - mean) ** 2 for x in samples)
                       / (len(samples) - 1)) ** 0.5
        reg = metrics()
        if reg.enabled:
            reg.counter("profiler.cells")
            reg.observe("profiler.cell_mean_s", mean)
        return mean, std

    def profile(self, application, mode):
        entries, stddevs = {}, {}
        with tracer().span("profiler.profile", "profiler",
                           application=application.name, mode=mode):
            for stage in application.stages:
                for pu_class in self.platform.pu_classes():
                    key = (stage.name, pu_class)
                    entries[key], stddevs[key] = self.cell(
                        application, stage.name, pu_class, mode
                    )
        return table_of(self.platform, application, mode, entries, stddevs)

    def profile_both(self, application):
        return (self.profile(application, ISOLATED),
                self.profile(application, INTERFERENCE))


def table_of(platform, application, mode, entries, stddevs):
    return ProfilingTable(
        application=application.name, platform=platform.name, mode=mode,
        entries=entries, stage_names=application.stage_names,
        pu_classes=platform.pu_classes(), stddevs=stddevs,
    )


# ----------------------------------------------------------------------
# The arms
# ----------------------------------------------------------------------
def build_case(platform_name, sigma, kind, app_seed, stage_count):
    platform = get_platform(platform_name)
    platform.noise = MeasurementNoise(sigma=sigma, seed=platform.noise.seed)
    build = (build_synthetic_application if kind == "synthetic"
             else build_bandwidth_bound_application)
    return platform, build(app_seed, stage_count)


def cells_of(platform, application):
    return [(stage, pu_class, mode)
            for mode in MODES
            for stage in application.stage_names
            for pu_class in platform.pu_classes()]


def interference_cells(platform, application):
    """The (stage, PU) cells of the table a campaign session profiles."""
    return [(stage, pu_class) for stage, pu_class, mode
            in cells_of(platform, application) if mode == INTERFERENCE]


class _Killed(Exception):
    """Stands in for the SIGKILL that ends a session mid-table."""


def session_framework(platform, repetitions):
    """The cheapest campaign around a profile: one candidate, measured
    over two tasks."""
    return BetterTogether(platform, repetitions=repetitions, k=1,
                          eval_tasks=2)


def cell_file(directory, stage, pu_class):
    return Path(directory, "profiling", INTERFERENCE,
                f"{stage}__{pu_class}.json")


def resumed_sessions(platform, application, repetitions, survive, lost):
    """Two interference tables from one session directory: the session
    killed after ``survive`` cells and resumed by a fresh session
    object, then resumed again after the ``lost`` (stage, PU) cells were
    deleted, so those are measured a run later than their neighbours."""
    def session(directory):
        return CampaignSession(directory,
                               session_framework(platform, repetitions))

    with tempfile.TemporaryDirectory() as directory:
        units = []

        def die_later(unit):
            units.append(unit)
            if len(units) == survive:
                raise _Killed(unit)

        try:
            session(directory).run(application, on_unit=die_later)
        except _Killed:
            pass
        resumed = session(directory)
        killed = resumed.run(application).table
        assert resumed.report.cells_reused == survive
        for stage, pu_class in lost:
            cell_file(directory, stage, pu_class).unlink()
        again = session(directory)
        missing = again.run(application).table
        assert again.report.cells_measured == len(lost)
        return killed, missing


def assert_same_table(got, want, arm):
    assert got == want, arm
    # Dataclass equality compares floats by value; spell the bit-level
    # claim out (it also tells -0.0 from 0.0).
    for key, value in want.entries.items():
        assert got.entries[key].hex() == value.hex(), (arm, key)
        assert got.stddevs[key].hex() == want.stddevs[key].hex(), (arm, key)
    assert list(got.entries) == list(want.entries), arm


def check_equivalence(platform, application, repetitions, survive, lost):
    """Every arm of the shipped profiler against the oracle; raises
    ``AssertionError`` naming the first arm that differs."""
    want = ReferenceProfiler(platform, repetitions).profile_both(application)
    profiler = BTProfiler(platform, repetitions=repetitions)
    both = profiler.profile_both(application)
    per_mode = tuple(profiler.profile(application, mode) for mode in MODES)
    for arm, got in (("profile_both", both), ("profile", per_mode)):
        for got_table, want_table in zip(got, want):
            assert_same_table(got_table, want_table, arm)
    killed, missing = resumed_sessions(
        platform, application, repetitions, survive, lost
    )
    assert_same_table(killed, want[1], "killed session")
    assert_same_table(missing, want[1], "session missing cells")


cases = st.tuples(
    st.sampled_from(PLATFORMS),
    st.sampled_from(SIGMAS),
    st.sampled_from(("synthetic", "bandwidth_bound")),
    st.integers(min_value=0, max_value=10_000),
    st.integers(min_value=1, max_value=6),
)


# ----------------------------------------------------------------------
class TestOnePassEqualsTwoPass:
    @settings(max_examples=60, deadline=None)
    @given(case=cases, repetitions=st.sampled_from(REPETITIONS),
           data=st.data())
    def test_every_arm_equals_the_reference(self, case, repetitions, data):
        platform, application = build_case(*case)
        grid = interference_cells(platform, application)
        survive = data.draw(st.integers(1, len(grid)), label="survive")
        lost = data.draw(st.sets(st.sampled_from(grid)), label="lost")
        check_equivalence(platform, application, repetitions, survive,
                          sorted(lost))

    @settings(max_examples=30, deadline=None)
    @given(case=cases, repetitions=st.sampled_from(REPETITIONS))
    def test_spans_and_metrics_are_the_reference_s(self, case, repetitions):
        platform, application = build_case(*case)
        with capture() as want:
            ReferenceProfiler(platform, repetitions).profile_both(
                application)
        with capture() as got:
            BTProfiler(platform, repetitions=repetitions).profile_both(
                application)
        # Ids, parents, logical timestamps, names, attrs - all of it.
        assert got.tracer.events == want.tracer.events
        n_cells = len(cells_of(platform, application))
        assert [e.name for e in got.tracer.events].count(
            "profiler.cell") == n_cells
        assert got.metrics.snapshot() == want.metrics.snapshot()
        assert got.metrics.snapshot()["counters"]["profiler.cells"] == n_cells
        # The histogram in observation order, not only its summary.
        assert (got.metrics._histograms["profiler.cell_mean_s"]
                == want.metrics._histograms["profiler.cell_mean_s"])

    @settings(max_examples=30, deadline=None)
    @given(case=cases, repetitions=st.sampled_from(REPETITIONS))
    def test_per_mode_and_cell_spans_are_the_reference_s(
            self, case, repetitions):
        platform, application = build_case(*case)
        reference = ReferenceProfiler(platform, repetitions)
        profiler = BTProfiler(platform, repetitions=repetitions)
        stage = application.stage_names[-1]
        pu_class = platform.pu_classes()[-1]
        framework = session_framework(platform, repetitions)
        with tempfile.TemporaryDirectory() as directory:
            CampaignSession(directory, framework).run(application)
            cell_file(directory, stage, pu_class).unlink()
            with capture() as got:
                profiler.profile(application, INTERFERENCE)
                # Everything else is read back: one cell is measured.
                CampaignSession(directory, framework).run(application)
        with capture() as want:
            reference.profile(application, INTERFERENCE)
            with tracer().span("profiler.profile", "profiler",
                               application=application.name,
                               mode=INTERFERENCE):
                reference.cell(application, stage, pu_class, INTERFERENCE)
        assert got.tracer.events == want.tracer.events
        assert got.metrics.snapshot() == want.metrics.snapshot()

    @pytest.mark.parametrize("sigma", SIGMAS)
    def test_platform_measure_is_the_scalar_draw(self, sigma):
        platform = get_platform("pixel7a")
        platform.noise = MeasurementNoise(sigma=sigma, seed=3)
        ours, theirs = (platform.measurement_rng("k") for _ in range(2))
        for _ in range(5):
            assert (platform.measure(1.5e-3, ours)
                    == reference_measure(platform, 1.5e-3, theirs))
        # ...and a batch draws each cell what its own stream's scalar
        # draws would be.
        cells = [(1.5e-3, ("k",)), (2e-4, ("k", 1)), (0.0, ("j",))]
        for (true_seconds, key), got in zip(
                cells, platform.measure_cells(cells, 7)):
            rng = platform.measurement_rng(*key)
            assert got == [reference_measure(platform, true_seconds, rng)
                           for _ in range(7)]


# ----------------------------------------------------------------------
#: A fixed grid the mutants are hunted on (every platform, both noise
#: levels, both application kinds; 30 repetitions is where a pairwise
#: ``numpy.sum`` and a left-to-right ``sum`` part ways).
MUTANT_GRID = [
    ((platform, sigma, kind, seed, 4), repetitions)
    for platform in PLATFORMS
    for sigma in SIGMAS
    for kind, seed in (("synthetic", 11), ("bandwidth_bound", 5))
    for repetitions in (2, 30)
]


def survives_the_grid():
    """True when no case of the grid tells the (possibly mutated)
    profiler from the oracle."""
    for case, repetitions in MUTANT_GRID:
        platform, application = build_case(*case)
        grid = interference_cells(platform, application)
        try:
            check_equivalence(platform, application, repetitions,
                              len(grid) // 2 or 1, grid[::2])
        except AssertionError:
            return False
    return True


def mutated_profiling_times(co_runners):
    """``Platform.profiling_times`` with the interference condition's
    demand summed over ``co_runners(pu_class, classes)``."""
    def profiling_times(platform, work):
        classes = platform.pu_classes()
        return {
            pu_class: (
                reference_true_time(platform, work, pu_class, 0.0, 0.0),
                reference_true_time(
                    platform, work, pu_class, 1.0,
                    sum(reference_demand(platform, work, other)
                        for other in co_runners(pu_class, classes)),
                ),
            )
            for pu_class in classes
        }
    return profiling_times


class TestSeededMutantsAreKilled:
    def test_the_grid_passes_unmutated(self, monkeypatch):
        assert survives_the_grid()
        # The mutation harness itself, with nothing mutated.
        monkeypatch.setattr(Platform, "profiling_times",
                            mutated_profiling_times(
                                lambda pu, classes: [c for c in classes
                                                     if c != pu]))
        assert survives_the_grid()

    def test_demand_summed_over_all_classes_self_included(
            self, monkeypatch):
        monkeypatch.setattr(Platform, "profiling_times",
                            mutated_profiling_times(
                                lambda pu, classes: classes))
        assert not survives_the_grid()

    def test_other_classes_summed_in_reverse_order(self, monkeypatch):
        monkeypatch.setattr(Platform, "profiling_times",
                            mutated_profiling_times(
                                lambda pu, classes: [
                                    c for c in reversed(classes)
                                    if c != pu]))
        assert not survives_the_grid()

    def test_mode_dropped_from_the_cell_rng_key(self, monkeypatch):
        batch = Platform.measure_cells
        monkeypatch.setattr(
            Platform, "measure_cells",
            lambda platform, cells, count: batch(
                platform, [(true_s, key[:-1]) for true_s, key in cells],
                count))
        assert not survives_the_grid()

    def test_pass_drawn_in_a_different_cell_order(self, monkeypatch):
        # PU-major instead of the tables' (mode, stage, PU) order: every
        # cell is drawn from its own stream, but handed to another cell.
        batch = Platform.measure_cells
        monkeypatch.setattr(
            Platform, "measure_cells",
            lambda platform, cells, count: batch(
                platform, sorted(cells, key=lambda cell: cell[1][3]),
                count))
        assert not survives_the_grid()

    def test_mean_taken_with_numpy_sum(self, monkeypatch):
        # A module global shadows the builtin where the mean is taken.
        monkeypatch.setattr(
            timer_module, "sum",
            lambda values: float(np.sum(list(values))), raising=False)
        assert not survives_the_grid()
