"""Tests for BT-Profiler and the ProfilingTable."""

import pytest

from repro.apps import build_octree_application
from repro.core.profiler import (
    INTERFERENCE,
    ISOLATED,
    BTProfiler,
    ProfilingTable,
    interference_ratios,
)
from repro.errors import ProfilingError
from repro.soc import get_platform
from repro.soc.pu import BIG, GPU, LITTLE, MEDIUM


@pytest.fixture(scope="module")
def pixel():
    return get_platform("pixel7a")


@pytest.fixture(scope="module")
def octree_app():
    return build_octree_application(n_points=20_000)


@pytest.fixture(scope="module")
def tables(pixel, octree_app):
    profiler = BTProfiler(pixel, repetitions=5)
    return profiler.profile_both(octree_app)


class TestProfiler:
    def test_table_covers_all_stages_and_pus(self, tables, octree_app,
                                             pixel):
        isolated, interference = tables
        for table in tables:
            assert table.stage_names == octree_app.stage_names
            assert set(table.pu_classes) == set(pixel.pu_classes())
            for stage in table.stage_names:
                for pu in table.pu_classes:
                    assert table.latency(stage, pu) > 0

    def test_modes_recorded(self, tables):
        isolated, interference = tables
        assert isolated.mode == ISOLATED
        assert interference.mode == INTERFERENCE

    def test_profiling_is_deterministic(self, pixel, octree_app):
        profiler = BTProfiler(pixel, repetitions=3)
        a = profiler.profile(octree_app, mode=ISOLATED)
        b = profiler.profile(octree_app, mode=ISOLATED)
        for stage in a.stage_names:
            for pu in a.pu_classes:
                assert a.latency(stage, pu) == b.latency(stage, pu)

    def test_more_repetitions_converge_to_truth(self, pixel, octree_app):
        stage = octree_app.stages[0]
        truth = pixel.true_time(stage.work, BIG)
        few = BTProfiler(pixel, repetitions=2).profile(
            octree_app, mode=ISOLATED
        ).latency(stage.name, BIG)
        many = BTProfiler(pixel, repetitions=200).profile(
            octree_app, mode=ISOLATED
        ).latency(stage.name, BIG)
        assert abs(many - truth) <= abs(few - truth) + 0.002 * truth

    def test_unknown_mode_rejected(self, pixel, octree_app):
        with pytest.raises(ProfilingError):
            BTProfiler(pixel).profile(octree_app, mode="standalone")

    def test_zero_repetitions_rejected(self, pixel):
        with pytest.raises(ProfilingError):
            BTProfiler(pixel, repetitions=0)

    def test_interference_differs_from_isolated(self, tables):
        isolated, interference = tables
        diffs = [
            abs(interference.latency(s, p) - isolated.latency(s, p))
            / isolated.latency(s, p)
            for s in isolated.stage_names
            for p in isolated.pu_classes
        ]
        assert max(diffs) > 0.05

    def test_pixel_cpu_slower_under_interference(self, tables):
        isolated, interference = tables
        ratios = interference_ratios(isolated, interference)
        assert ratios[BIG] > 1.0
        assert ratios[MEDIUM] > 1.0
        assert ratios[LITTLE] > 1.0

    def test_pixel_gpu_boosts_under_interference(self, tables):
        isolated, interference = tables
        ratios = interference_ratios(isolated, interference)
        assert ratios[GPU] < 1.0


class TestProfilingTable:
    def test_row_and_column(self, tables):
        isolated, _ = tables
        row = isolated.row("sort")
        assert set(row) == set(isolated.pu_classes)
        column = isolated.column(BIG)
        assert set(column) == set(isolated.stage_names)

    def test_best_pu(self, tables):
        isolated, _ = tables
        assert isolated.best_pu("sort") != GPU
        assert isolated.best_pu("radix-tree") == GPU

    def test_missing_entry(self, tables):
        isolated, _ = tables
        with pytest.raises(ProfilingError):
            isolated.latency("sort", "npu")

    def test_restricted_drops_columns(self, tables):
        isolated, _ = tables
        sub = isolated.restricted([BIG, GPU])
        assert set(sub.pu_classes) == {BIG, GPU}
        assert sub.latency("sort", BIG) == isolated.latency("sort", BIG)
        with pytest.raises(ProfilingError):
            sub.latency("sort", LITTLE)

    def test_restricted_to_nothing_rejected(self, tables):
        isolated, _ = tables
        with pytest.raises(ProfilingError):
            isolated.restricted(["npu"])

    def test_restricted_takes_a_one_shot_iterable(self, tables):
        isolated, _ = tables
        sub = isolated.restricted(c for c in [BIG, GPU])
        assert sub.pu_classes == isolated.restricted([BIG, GPU]).pu_classes
        assert sub.pu_classes == (BIG, GPU)
        with pytest.raises(ProfilingError):
            isolated.restricted(c for c in [])

    def test_to_rows_renders_all(self, tables):
        isolated, _ = tables
        rows = isolated.to_rows()
        assert len(rows) == len(isolated.stage_names) + 1
        assert rows[0][0] == "stage"


class TestBlackBox:
    """Paper section 3.2: the profiler observes times, never the model.
    The one roofline pass lives behind ``Platform``."""

    def test_profiler_imports_no_cost_or_interference_model(self):
        import ast
        import inspect

        import repro.core.profiler as module

        source = inspect.getsource(module)
        imported = set()
        for node in ast.walk(ast.parse(source)):
            if isinstance(node, ast.ImportFrom):
                imported.update(f"{node.module}.{alias.name}"
                                for alias in node.names)
            elif isinstance(node, ast.Import):
                imported.update(alias.name for alias in node.names)
        assert imported, "the walk found no imports at all"
        forbidden = ("repro.soc.cost_model", "repro.soc.interference")
        assert not [name for name in imported
                    if name.startswith(forbidden)]
        # ...and no breakdown reaches it through a return value either.
        for name in ("CostBreakdown", "StageCost", "stage_cost",
                     "speed_multiplier"):
            assert name not in source.split('"""', 2)[2], name


class TestInterferenceRatios:
    def test_mismatched_tables_rejected(self, tables, pixel):
        isolated, _ = tables
        other = ProfilingTable(
            application="x", platform=pixel.name, mode=INTERFERENCE,
            entries={("s", BIG): 1.0}, stage_names=("s",),
            pu_classes=(BIG,),
        )
        with pytest.raises(ProfilingError):
            interference_ratios(isolated, other)


class TestMeasurementStatistics:
    def test_stddev_collected(self, pixel, octree_app):
        table = BTProfiler(pixel, repetitions=10).profile(octree_app)
        for stage in table.stage_names:
            for pu in table.pu_classes:
                assert table.stddev(stage, pu) > 0.0

    def test_noise_fraction_matches_timer_sigma(self, pixel, octree_app):
        table = BTProfiler(pixel, repetitions=100).profile(
            octree_app, mode=ISOLATED
        )
        fraction = table.stddev("sort", BIG) / table.latency("sort", BIG)
        # Pixel's timer noise sigma is 3%; the sample estimate should be
        # in that ballpark.
        assert 0.01 < fraction < 0.06

    def test_single_repetition_has_zero_std(self, pixel, octree_app):
        table = BTProfiler(pixel, repetitions=1).profile(
            octree_app, mode=ISOLATED
        )
        assert table.stddev("sort", BIG) == 0.0

    def test_restricted_keeps_stats(self, pixel, octree_app):
        table = BTProfiler(pixel, repetitions=5).profile(octree_app)
        sub = table.restricted([BIG])
        assert sub.stddev("sort", BIG) == table.stddev("sort", BIG)

    def test_serialization_round_trips_stats(self, pixel, octree_app,
                                             tmp_path):
        from repro.core.serialization import load, save

        table = BTProfiler(pixel, repetitions=5).profile(octree_app)
        path = tmp_path / "t.json"
        save(table, path)
        restored = load(path)
        assert restored.stddev("sort", BIG) == pytest.approx(
            table.stddev("sort", BIG)
        )

    def test_legacy_artifact_without_stats_loads(self, pixel, octree_app):
        from repro.core.serialization import (
            profiling_table_from_dict,
            profiling_table_to_dict,
        )

        table = BTProfiler(pixel, repetitions=5).profile(octree_app)
        data = profiling_table_to_dict(table)
        del data["stddevs_s"]
        restored = profiling_table_from_dict(data)
        assert restored.stddev("sort", BIG) == 0.0
