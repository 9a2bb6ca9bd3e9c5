"""Tests for the discrete-event pipeline simulator (performance back-end)."""

import pytest

from repro.apps import build_octree_application
from repro.core import Application, Chunk, Stage
from repro.errors import PipelineError
from repro.runtime import SimulatedPipelineExecutor
from repro.soc import WorkProfile, get_platform
from repro.soc.interference import ExternalLoad
from repro.soc.pu import BIG, GPU, LITTLE, MEDIUM
from tests.runtime import reference_engine


@pytest.fixture(scope="module")
def pixel():
    return get_platform("pixel7a")


@pytest.fixture(scope="module")
def app():
    return build_octree_application(n_points=20_000)


def run(app, chunks, platform, n=12, depth=None):
    return SimulatedPipelineExecutor(app, chunks, platform,
                                     depth=depth).run(n)


class TestBasics:
    def test_completions_monotone(self, app, pixel):
        result = run(app, [Chunk(0, 7, BIG)], pixel)
        times = result.completion_times_s
        assert all(a < b for a, b in zip(times, times[1:]))
        assert result.total_s == pytest.approx(times[-1])

    def test_single_chunk_latency_matches_stage_sum(self, app, pixel):
        """One chunk, no co-runners: steady interval = sum of isolated
        stage times (up to execution noise)."""
        result = run(app, [Chunk(0, 7, BIG)], pixel, n=20)
        expected = sum(
            pixel.isolated_time(stage.work, BIG) for stage in app.stages
        )
        assert result.steady_interval_s == pytest.approx(expected, rel=0.05)

    def test_pipelining_beats_serial_on_balanced_split(self, app, pixel):
        serial = run(app, [Chunk(0, 7, BIG)], pixel, n=20)
        split = run(
            app,
            [Chunk(0, 2, BIG), Chunk(2, 4, GPU), Chunk(4, 6, MEDIUM),
             Chunk(6, 7, LITTLE)],
            pixel, n=20,
        )
        assert split.steady_interval_s < serial.steady_interval_s

    def test_throughput_inverse_of_interval(self, app, pixel):
        result = run(app, [Chunk(0, 7, BIG)], pixel)
        assert result.throughput_tasks_per_s == pytest.approx(
            1.0 / result.steady_interval_s
        )

    def test_bottleneck_chunk_fully_utilized(self, app, pixel):
        result = run(
            app, [Chunk(0, 6, BIG), Chunk(6, 7, LITTLE)], pixel, n=20
        )
        busiest = max(
            result.chunk_busy_s, key=lambda i: result.chunk_busy_s[i]
        )
        assert result.utilization(busiest) > 0.9

    def test_deterministic(self, app, pixel):
        a = run(app, [Chunk(0, 4, BIG), Chunk(4, 7, GPU)], pixel)
        b = run(app, [Chunk(0, 4, BIG), Chunk(4, 7, GPU)], pixel)
        assert a.completion_times_s == b.completion_times_s

    def test_single_task(self, app, pixel):
        result = run(app, [Chunk(0, 7, BIG)], pixel, n=1)
        assert result.n_tasks == 1
        assert result.steady_interval_s > 0


class TestInterferenceEmergence:
    def test_corun_changes_latency_vs_isolated_sum(self, app, pixel):
        """A two-chunk pipeline's bottleneck differs from the isolated
        bottleneck prediction because co-running changes rates."""
        chunks = [Chunk(0, 4, BIG), Chunk(4, 7, MEDIUM)]
        result = run(app, chunks, pixel, n=20)
        isolated_bottleneck = max(
            sum(pixel.isolated_time(app.stages[i].work, c.pu_class)
                for i in c.stage_indices)
            for c in chunks
        )
        # CPU clusters slow each other down on the Pixel under co-run.
        assert result.steady_interval_s > isolated_bottleneck * 1.02

    def test_gpu_chunk_speeds_up_under_cpu_coload(self, pixel):
        """Pixel's Mali boosts when CPUs are busy: in a pipeline that
        keeps the CPU clusters saturated, the GPU chunk's busy time per
        task drops below its isolated execution time (section 5.3)."""
        gpu_stage = Stage.model_only(
            "gpu-work",
            WorkProfile(flops=200e6, bytes_moved=1e5, parallelism=1e6,
                        gpu_efficiency=0.5),
        )
        gpu_isolated = pixel.isolated_time(gpu_stage.work, GPU)

        def cpu_stage(name, target_pu):
            # Sized so each CPU chunk roughly matches the GPU chunk,
            # keeping every PU busy (co-load ~ 1 for the GPU).
            base = pixel.isolated_time(
                WorkProfile(flops=1e6, bytes_moved=1e3, parallelism=1e3,
                            cpu_efficiency=0.5),
                target_pu,
            )
            scale = gpu_isolated / base
            return Stage.model_only(
                name,
                WorkProfile(flops=1e6 * scale, bytes_moved=1e3,
                            parallelism=1e3, cpu_efficiency=0.5),
            )

        app2 = Application(
            "synthetic",
            [gpu_stage, cpu_stage("big-work", BIG),
             cpu_stage("med-work", MEDIUM),
             cpu_stage("little-work", LITTLE)],
        )
        split = run(
            app2,
            [Chunk(0, 1, GPU), Chunk(1, 2, BIG), Chunk(2, 3, MEDIUM),
             Chunk(3, 4, LITTLE)],
            pixel, n=30,
        )
        gpu_busy_per_task = split.chunk_busy_s[0] / split.n_tasks
        assert gpu_busy_per_task < gpu_isolated * 0.95


class TestValidation:
    def test_unknown_pu_rejected(self, app):
        jetson = get_platform("jetson_orin_nano")
        with pytest.raises(PipelineError):
            SimulatedPipelineExecutor(
                app, [Chunk(0, 7, MEDIUM)], jetson
            )

    def test_zero_tasks_rejected(self, app, pixel):
        executor = SimulatedPipelineExecutor(app, [Chunk(0, 7, BIG)], pixel)
        with pytest.raises(PipelineError):
            executor.run(0)

    def test_bad_depth_rejected(self, app, pixel):
        with pytest.raises(PipelineError):
            SimulatedPipelineExecutor(app, [Chunk(0, 7, BIG)], pixel,
                                      depth=0)

    def test_bad_cover_rejected(self, app, pixel):
        with pytest.raises(PipelineError):
            SimulatedPipelineExecutor(
                app, [Chunk(0, 3, BIG), Chunk(4, 7, GPU)], pixel
            )


class TestMultiBuffering:
    def test_depth_one_serializes(self, app, pixel):
        """With a single TaskObject no overlap is possible: the pipeline
        degenerates to serial execution."""
        chunks = [Chunk(0, 4, BIG), Chunk(4, 7, GPU)]
        deep = run(app, chunks, pixel, n=20, depth=4)
        shallow = run(app, chunks, pixel, n=20, depth=1)
        assert shallow.steady_interval_s > deep.steady_interval_s

    def test_deeper_buffering_never_hurts_much(self, app, pixel):
        chunks = [Chunk(0, 4, BIG), Chunk(4, 7, GPU)]
        d3 = run(app, chunks, pixel, n=20, depth=3)
        d6 = run(app, chunks, pixel, n=20, depth=6)
        assert d6.steady_interval_s <= d3.steady_interval_s * 1.05


class TestEventCountStability:
    """Phase completion must be magnitude-blind.

    ``advance()`` leaves float residue (``remaining -= dt * rate``
    after ``dt = remaining / rate``) proportional to the phase's
    magnitude; with the old absolute ``1e-15`` epsilon, large ``work_s``
    values shed spurious near-zero-``dt`` micro-events.  The fix snaps
    the ``dt``-defining server's remaining to exactly 0.0 and compares
    against a *relative* epsilon, so the event count is now a function
    of the pipeline's structure alone.
    """

    def make_app(self, scale):
        # Fractional co-run rates (the residue trigger: rate 1.0 divides
        # exactly) come from external load on the chunks' own classes.
        work = WorkProfile(flops=1e6 * scale, bytes_moved=1e3 * scale,
                           parallelism=1e3, cpu_efficiency=0.5)
        return Application(
            "residue",
            [Stage.model_only("a", work), Stage.model_only("b", work)],
        )

    def run(self, pixel, scale, n=12, engine=None):
        return reference_engine.build(
            self.make_app(scale),
            [Chunk(0, 1, BIG), Chunk(1, 2, MEDIUM)],
            pixel, engine=engine,
        ).run(n, external_load=ExternalLoad(
            busy={BIG: 0.5, MEDIUM: 0.3}, demand_gbps=1.0))

    @pytest.mark.parametrize("engine", ["vector", "reference"])
    def test_event_count_independent_of_work_magnitude(self, pixel,
                                                        engine):
        small = self.run(pixel, scale=1.0, engine=engine)
        large = self.run(pixel, scale=1e9, engine=engine)
        assert large.n_events == small.n_events

    def test_event_count_linear_in_tasks(self, pixel):
        # Structure-bound: a 2-server, 2-phase-per-stage pipeline needs
        # a handful of events per task, never a residue-driven blowup.
        result = self.run(pixel, scale=1e9, n=40)
        assert result.n_events <= 8 * 40 + 10


class TestMeasurement:
    def test_measured_latency_noisy_but_close(self, app, pixel):
        executor = SimulatedPipelineExecutor(app, [Chunk(0, 7, BIG)], pixel)
        truth = executor.run(20).steady_interval_s
        measured = executor.measure_per_task_latency(20)
        assert measured == pytest.approx(truth, rel=0.15)
        assert measured != truth  # timer noise applied
