"""Smoke + shape tests for the experiment drivers at quick scale.

These validate the machinery (every driver runs, formats, and exposes
its shape checks); the paper-scale shape assertions live in the
benchmarks, which run the full configuration.
"""

import pytest

from repro.eval.experiments import (
    APP_ORDER,
    ExperimentScale,
    build_applications,
    evaluation_platforms,
    format_fig1,
    format_fig7,
    format_table1,
    format_table2,
    format_table4,
    run_fig1,
    run_fig7,
    run_table4,
)


@pytest.fixture(scope="module")
def scale():
    return ExperimentScale.quick()


class TestScale:
    def test_paper_defaults(self):
        paper = ExperimentScale.paper()
        assert paper.k == 20
        assert paper.repetitions == 30
        assert paper.sparse_batch == 128

    def test_quick_is_smaller(self, scale):
        paper = ExperimentScale.paper()
        assert scale.n_points < paper.n_points
        assert scale.k < paper.k

    def test_build_applications_order(self, scale):
        apps = build_applications(scale)
        assert tuple(apps) == APP_ORDER

    def test_four_platforms(self):
        platforms = evaluation_platforms()
        assert [p.name for p in platforms] == [
            "pixel7a", "oneplus11", "jetson_orin_nano",
            "jetson_orin_nano_lp",
        ]


class TestFig1:
    def test_shape_properties(self, scale):
        result = run_fig1(scale)
        assert result.gpu_is_worst_at_sort()
        assert result.gpu_is_best_at_radix_tree()
        assert result.octree_build_is_balanced()

    def test_format(self, scale):
        text = format_fig1(run_fig1(scale))
        assert "sort" in text and "radix-tree" in text


class TestFig7:
    def test_directions_all_match(self, scale):
        result = run_fig7(scale)
        assert result.directions_matching() == 12

    def test_pixel_gpu_boosts(self, scale):
        result = run_fig7(scale)
        assert result.ratios[("pixel7a", "gpu")] < 1.0
        assert result.ratios[("pixel7a", "big")] > 1.0

    def test_oneplus_little_boosts(self, scale):
        result = run_fig7(scale)
        assert result.ratios[("oneplus11", "little")] < 1.0

    def test_jetson_gpu_slows(self, scale):
        result = run_fig7(scale)
        assert result.ratios[("jetson_orin_nano", "gpu")] > 1.0
        assert result.ratios[("jetson_orin_nano_lp", "gpu")] > (
            result.ratios[("jetson_orin_nano", "gpu")]
        )

    def test_format(self, scale):
        text = format_fig7(run_fig7(scale))
        assert "paper" in text


class TestTable4:
    def test_autotuning_never_loses(self, scale):
        result = run_table4(scale)
        assert result.autotuning_gain >= 1.0

    def test_format_rows(self, scale):
        text = format_table4(run_table4(scale))
        assert "Measured (ms)" in text
        assert "Predicted (ms)" in text


class TestStaticTables:
    def test_table1_lists_apps(self, scale):
        text = format_table1(scale)
        assert "alexnet-dense" in text
        assert "octree" in text

    def test_table2_lists_platforms(self):
        text = format_table2()
        assert "Pixel" in text
        assert "Adreno 740" in text
        assert "Orin" in text
