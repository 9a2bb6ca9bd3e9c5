"""Tests for fault injection and the recovery machinery it exercises."""

import time
from dataclasses import replace

import numpy as np
import pytest

from repro.apps import build_octree_application
from repro.core import AdaptivePipeline, Application, Chunk, Stage
from repro.core.optimizer import BTOptimizer
from repro.core.profiler import BTProfiler
from repro.errors import (
    PipelineError,
    PuFailureError,
    SchedulingError,
    TransientKernelFault,
)
from repro.runtime import faults, simulator
from repro.runtime import (
    FaultInjector,
    FaultPlan,
    KernelFaultSpec,
    PuDropoutSpec,
    RetryPolicy,
    SimulatedPipelineExecutor,
    ThreadedPipelineExecutor,
)
from repro.runtime.faults import (
    clear_quarantine,
    quarantine_task,
    task_failure,
    TaskFailure,
)
from repro.runtime.task_object import TaskObject
from repro.soc import WorkProfile, get_platform


def work():
    return WorkProfile(flops=1e3, bytes_moved=1e3, parallelism=4.0)


def make_counting_app(n_stages=3):
    """Each stage increments a counter; output proves order + coverage."""

    def stage_kernel(index):
        def kernel(task):
            trace = task["trace"]
            trace[index] = trace[index - 1] + 1 if index > 0 else 1
        return kernel

    stages = [
        Stage(f"s{i}", work(),
              {"cpu": stage_kernel(i), "gpu": stage_kernel(i)})
        for i in range(n_stages)
    ]

    def make_task(seed):
        return {"trace": np.zeros(n_stages, dtype=np.int64),
                "seed": np.array([seed], dtype=np.int64)}

    def validate(task):
        expected = np.arange(1, n_stages + 1)
        if not np.array_equal(np.asarray(task["trace"]), expected):
            raise ValueError(f"bad trace {task['trace']}")

    return Application("counting", stages, make_task=make_task,
                       validate_task=validate)


class TestFaultPlan:
    def test_random_is_deterministic_per_seed(self):
        kwargs = dict(n_tasks=10, n_stages=4, kernel_fault_rate=0.4)
        a = FaultPlan.random(seed=7, **kwargs)
        b = FaultPlan.random(seed=7, **kwargs)
        c = FaultPlan.random(seed=8, **kwargs)
        assert a.kernel_faults == b.kernel_faults
        assert a.kernel_faults != c.kernel_faults
        assert not a.dropouts

    def test_random_plan_is_pinned_per_seed(self):
        # faultsim's report is a function of these coordinates: a change
        # to the draw sequence would change every saved report.
        plan = FaultPlan.random(seed=7, n_tasks=6, n_stages=3,
                                kernel_fault_rate=0.4)
        assert [(f.task_id, f.stage_index) for f in plan.kernel_faults] == [
            (0, 2), (1, 0), (1, 2), (2, 0), (3, 1), (4, 0), (5, 1)]

    def test_rates_validated(self):
        with pytest.raises(PipelineError):
            FaultPlan.random(seed=0, n_tasks=2, n_stages=2,
                             kernel_fault_rate=1.5)

    def test_empty_plan_is_falsy(self):
        assert not FaultPlan()
        assert FaultPlan(dropouts=[PuDropoutSpec("gpu")])

    def test_spec_validation(self):
        # A fault that fails no attempt would be planned, never fire.
        for fail_attempts in (0, -1):
            with pytest.raises(PipelineError):
                KernelFaultSpec(task_id=0, stage_index=0,
                                fail_attempts=fail_attempts)
            with pytest.raises(PipelineError):  # also when none is drawn
                FaultPlan.random(seed=0, n_tasks=2, n_stages=2,
                                 fail_attempts=fail_attempts)
        with pytest.raises(PipelineError):
            PuDropoutSpec("gpu", after_task=-1)


class TestRetryPolicy:
    def test_exponential_backoff_with_ceiling(self):
        policy = RetryPolicy(max_attempts=12)
        assert faults.BASE_BACKOFF_S == 1e-4
        assert policy.backoff_s(1) == pytest.approx(1e-4)
        assert policy.backoff_s(2) == pytest.approx(2e-4)
        assert policy.backoff_s(10) == pytest.approx(0.0512)
        assert policy.backoff_s(11) == pytest.approx(0.1)  # capped
        assert policy.backoff_s(12) is None  # budget exhausted

    def test_validation(self):
        with pytest.raises(PipelineError):
            RetryPolicy(max_attempts=0)


class TestQuarantineHelpers:
    def test_roundtrip_and_clear(self):
        task = TaskObject(0)
        assert task_failure(task) is None
        failure = TaskFailure(1, 0, 2, "big", "boom")
        quarantine_task(task, failure)
        assert task_failure(task) == failure
        clear_quarantine(task)
        assert task_failure(task) is None


class TestThreadedRecovery:
    def run_app(self, app, n_tasks, **kwargs):
        outputs = {}
        result = ThreadedPipelineExecutor(
            app, [Chunk(0, 2, "big"), Chunk(2, 4, "gpu")], **kwargs
        ).run(
            n_tasks, validate=True,
            on_complete=lambda task, i: outputs.__setitem__(
                i, np.asarray(task["trace"]).copy()),
        )
        return result, outputs

    def test_transient_fault_retried_to_identical_outputs(self):
        """The acceptance path: retry recovers, outputs are bit-equal."""
        app = make_counting_app(4)
        _, clean = self.run_app(app, 5)
        injector = FaultInjector(FaultPlan(kernel_faults=[
            KernelFaultSpec(task_id=2, stage_index=1, fail_attempts=2),
            KernelFaultSpec(task_id=4, stage_index=3, fail_attempts=1),
        ]))
        result, faulty = self.run_app(
            app, 5, fault_injector=injector,
            retry_policy=RetryPolicy(max_attempts=3),
        )
        assert result.completed == 5
        assert result.failures == []
        for i in range(5):
            np.testing.assert_array_equal(faulty[i], clean[i])
        report = injector.report()
        assert report.count("kernel-fault") == 3  # 2 + 1 attempts failed
        assert report.count("retry") == 3
        assert report.count("recovery") == 2  # one per faulted stage
        # The injector's log, ordered by dispatch for the run's result.
        assert result.fault_events == tuple(sorted(
            report.events, key=lambda e: (e.task_id, e.stage_index)))

    def test_retries_exhausted_unwinds_without_isolation(self):
        app = make_counting_app(4)
        injector = FaultInjector(FaultPlan(kernel_faults=[
            KernelFaultSpec(task_id=1, stage_index=2, fail_attempts=3),
        ]))
        with pytest.raises(PipelineError) as info:
            self.run_app(
                app, 4, fault_injector=injector,
                retry_policy=RetryPolicy(max_attempts=2),
            )
        assert isinstance(info.value.__cause__, TransientKernelFault)

    def test_isolation_quarantines_poisoned_task(self):
        app = make_counting_app(4)
        injector = FaultInjector(FaultPlan(kernel_faults=[
            KernelFaultSpec(task_id=1, stage_index=1, fail_attempts=3),
        ]))
        result, outputs = self.run_app(
            app, 6, fault_injector=injector,
            retry_policy=RetryPolicy(max_attempts=2),
            isolate_failures=True,
        )
        assert result.completed == 6
        assert result.succeeded == 5
        assert [f.task_id for f in result.failures] == [1]
        failure = result.failures[0]
        assert failure.stage_index == 1 and failure.pu_class == "big"
        # The poisoned task never reached on_complete; the rest did,
        # including later tasks recycled through the same TaskObject.
        assert sorted(outputs) == [0, 2, 3, 4, 5]
        assert injector.report(result.failures).count("quarantine") == 1

    def test_isolation_without_retry_policy(self):
        app = make_counting_app(4)
        injector = FaultInjector(FaultPlan(kernel_faults=[
            KernelFaultSpec(task_id=0, stage_index=3, fail_attempts=1),
        ]))
        result, _ = self.run_app(
            app, 3, fault_injector=injector, isolate_failures=True,
        )
        assert [f.task_id for f in result.failures] == [0]

    def test_pu_dropout_unwinds_pipeline(self):
        app = make_counting_app(4)
        injector = FaultInjector(FaultPlan(dropouts=[
            PuDropoutSpec("gpu", after_task=1),
        ]))
        with pytest.raises(PipelineError) as info:
            self.run_app(
                app, 4, fault_injector=injector,
                retry_policy=RetryPolicy(max_attempts=5),
                isolate_failures=True,
            )
        # Dropout is permanent: neither retries nor quarantine apply.
        assert isinstance(info.value.__cause__, PuFailureError)
        assert info.value.__cause__.pu_class == "gpu"

    def test_octree_outputs_survive_faults(self):
        """Real kernels: a retried transient fault must not corrupt the
        octree (injection fires before dispatch, so state stays clean)."""
        app = build_octree_application(n_points=400)
        chunks = [Chunk(0, 3, "little"), Chunk(3, 7, "gpu")]

        def run(**kwargs):
            cells = []
            ThreadedPipelineExecutor(app, chunks, **kwargs).run(
                2, validate=True,
                on_complete=lambda task, i: cells.append(
                    int(np.asarray(task["oc_num_cells"])[0])),
            )
            return cells

        clean = run()
        injector = FaultInjector(FaultPlan(kernel_faults=[
            KernelFaultSpec(task_id=1, stage_index=4, fail_attempts=1),
        ]))
        faulty = run(
            fault_injector=injector,
            retry_policy=RetryPolicy(max_attempts=2),
        )
        assert faulty == clean
        assert injector.report().count("recovery") == 1


class TestThreadedLogOrder:
    """Dispatchers append to the shared fault log in wall-clock order;
    the run's log is ordered by (task, stage), so one seeded plan gives
    one report however the chunks' speeds interleave the appends."""

    def report(self, upstream_s, downstream_s):
        def paced(index, delay_s):
            def kernel(task):
                time.sleep(delay_s)
                task["trace"][index] = 1
            return kernel

        stages = [
            Stage(f"s{i}", work(),
                  {"cpu": paced(i, delay), "gpu": paced(i, delay)})
            for i, delay in enumerate((upstream_s, downstream_s))
        ]
        app = Application(
            "paced", stages,
            make_task=lambda seed: {"trace": np.zeros(2, dtype=np.int64)},
        )
        # Task 0 faults downstream while task 1 faults upstream, so the
        # two recoveries race: the slower chunk logs its recovery last.
        injector = FaultInjector(FaultPlan(kernel_faults=[
            KernelFaultSpec(task_id=0, stage_index=1),
            KernelFaultSpec(task_id=1, stage_index=0),
        ]))
        result = ThreadedPipelineExecutor(
            app, [Chunk(0, 1, "big"), Chunk(1, 2, "gpu")],
            fault_injector=injector,
            retry_policy=RetryPolicy(max_attempts=2),
        ).run(3)
        return replace(injector.report(result.failures),
                       events=result.fault_events)

    def test_report_is_the_same_whichever_chunk_finishes_first(self):
        upstream_first = self.report(upstream_s=0.0, downstream_s=0.05)
        downstream_first = self.report(upstream_s=0.05, downstream_s=0.0)
        assert upstream_first.to_dict() == downstream_first.to_dict()
        # Each dispatch's fault -> retry -> recovery stays in sequence.
        assert [(e.task_id, e.stage_index, e.kind)
                for e in upstream_first.events] == [
            (0, 1, "kernel-fault"), (0, 1, "retry"), (0, 1, "recovery"),
            (1, 0, "kernel-fault"), (1, 0, "retry"), (1, 0, "recovery"),
        ]


class TestSimulatedFaults:
    @pytest.fixture(scope="class")
    def app(self):
        return make_counting_app(4)

    def executor(self, app, injector=None):
        return SimulatedPipelineExecutor(
            app, [Chunk(0, 2, "big"), Chunk(2, 4, "gpu")],
            get_platform("jetson_orin_nano"), fault_injector=injector,
        )

    def test_noise_memoization_keeps_runs_identical(self, app):
        simulator._jitter_column.cache_clear()
        fresh = self.executor(app).run(10)
        cold = simulator._jitter_column.cache_info()
        assert cold.misses > 0
        twice = self.executor(app)
        first = twice.run(10)
        second = twice.run(10)
        warm = simulator._jitter_column.cache_info()
        # The jitter is no executor state: both later runs - on a new
        # executor (a reschedule, a co-tenant of the same application),
        # then on a reused one (the next window of a residency) - were
        # served entirely from the memo the first executor filled.
        assert warm.misses == cold.misses
        assert warm.hits - cold.hits == 2 * (cold.hits + cold.misses)
        assert first.completion_times_s == fresh.completion_times_s
        assert second.completion_times_s == first.completion_times_s

    def test_kernel_faults_are_refused(self, app):
        # The DES checks PU dropouts only: a kernel fault handed to it
        # would be planned and never fire.
        injector = FaultInjector(FaultPlan(
            kernel_faults=[KernelFaultSpec(task_id=0, stage_index=0)],
            dropouts=[PuDropoutSpec("gpu", after_task=2)],
        ))
        with pytest.raises(PipelineError, match="PU dropouts only"):
            self.executor(app, injector)
        assert injector.events == ()

    def test_dropout_raises_pu_failure(self, app):
        injector = FaultInjector(FaultPlan(dropouts=[
            PuDropoutSpec("gpu", after_task=2),
        ]))
        with pytest.raises(PuFailureError) as info:
            self.executor(app, injector).run(6)
        assert info.value.pu_class == "gpu"
        assert [(e.kind, e.pu_class) for e in injector.events] == [
            ("pu-dropout", "gpu")]


class TestAdaptiveFallback:
    @pytest.fixture(scope="class")
    def app(self):
        return build_octree_application(n_points=20_000)

    @pytest.fixture(scope="class")
    def candidates(self, app):
        platform = get_platform("jetson_orin_nano")
        table = BTProfiler(platform, repetitions=3).profile(app)
        return BTOptimizer(
            app, table.restricted(platform.schedulable_classes()), k=6
        ).optimize().candidates

    def make_pipeline(self, app, candidates):
        return AdaptivePipeline(
            application=app,
            platform=get_platform("jetson_orin_nano"),
            candidates=candidates,
            eval_tasks=8,
            window_tasks=10,
        )

    def test_dropout_falls_back_and_keeps_streaming(self, app,
                                                    candidates):
        """The acceptance path: kill a deployed PU mid-window; the
        pipeline re-ranks the cached candidates avoiding it and keeps
        serving, with the report recording dropout and fallback."""
        pipeline = self.make_pipeline(app, candidates)
        victim = pipeline.schedule.pu_classes_used[0]
        assert any(victim not in c.schedule.pu_classes_used
                   for c in candidates)  # a fallback exists
        injector = FaultInjector(FaultPlan(dropouts=[
            PuDropoutSpec(victim, after_task=1),
        ]))
        hit = pipeline.run_window(fault_injector=injector)
        assert hit.fallback
        assert victim not in hit.schedule.pu_classes_used
        assert victim in pipeline.failed_pus
        steady = pipeline.run_window(fault_injector=injector)
        assert steady.measured_latency_s > 0
        assert not steady.fallback
        report = injector.report()
        assert report.count("pu-dropout") == 1
        assert report.count("fallback") == 1

    def test_mark_pu_failed_without_fallback_raises(self, app,
                                                    candidates):
        victim = "gpu"
        only_victim = [
            c for c in candidates
            if victim in c.schedule.pu_classes_used
        ]
        assert only_victim  # precondition
        pipeline = AdaptivePipeline(
            application=app,
            platform=get_platform("jetson_orin_nano"),
            candidates=only_victim,
            eval_tasks=8,
            window_tasks=10,
        )
        with pytest.raises(SchedulingError):
            pipeline.mark_pu_failed(victim)

    def test_mark_unused_pu_does_not_retune(self, app, candidates):
        pipeline = self.make_pipeline(app, candidates)
        used = set(pipeline.schedule.pu_classes_used)
        unused = [
            pu for pu in ("little", "medium", "big", "gpu")
            if pu not in used
            and any(pu not in c.schedule.pu_classes_used
                    for c in candidates)
        ]
        if not unused:
            pytest.skip("deployed schedule uses every fallback-safe PU")
        before = pipeline.schedule
        assert pipeline.mark_pu_failed(unused[0]) is False
        assert pipeline.schedule is before


class TestFailureClassification:
    def test_classify_failure(self):
        from repro.runtime import (
            FAILURE_FATAL,
            FAILURE_TRANSIENT,
            classify_failure,
        )

        assert classify_failure(
            TransientKernelFault("x")) == FAILURE_TRANSIENT
        assert classify_failure(
            PipelineError("bad chunk cover")) == FAILURE_FATAL
        assert classify_failure(
            SchedulingError("bad schedule")) == FAILURE_FATAL
        assert classify_failure(
            ValueError("numerical blow-up")) == FAILURE_TRANSIENT

    def test_fatal_kernel_error_unwinds_instead_of_retrying(self):
        """A ReproError from dispatch is a contract bug: it must not
        burn the retry budget or be quarantined away."""
        calls = {"n": 0}

        def fatal_kernel(task):
            calls["n"] += 1
            raise PipelineError("contract bug")

        stages = [Stage("s0", work(),
                        {"cpu": fatal_kernel, "gpu": fatal_kernel})]
        app = Application(
            "fatal", stages,
            make_task=lambda seed: {"x": np.zeros(1)},
        )
        executor = ThreadedPipelineExecutor(
            app, [Chunk(0, 1, "big")],
            retry_policy=RetryPolicy(max_attempts=3),
            isolate_failures=True,
        )
        with pytest.raises(PipelineError):
            executor.run(2)
        assert calls["n"] == 1  # no retry, no quarantine

    def test_generic_kernel_error_still_recovers(self):
        """Non-Repro exceptions from a kernel stay retryable."""
        attempts = {"n": 0}

        def flaky_kernel(task):
            attempts["n"] += 1
            if attempts["n"] == 1:
                raise ValueError("transient glitch")

        stages = [Stage("s0", work(),
                        {"cpu": flaky_kernel, "gpu": flaky_kernel})]
        app = Application(
            "flaky", stages,
            make_task=lambda seed: {"x": np.zeros(1)},
        )
        injector = FaultInjector(FaultPlan())
        result = ThreadedPipelineExecutor(
            app, [Chunk(0, 1, "big")],
            fault_injector=injector,
            retry_policy=RetryPolicy(max_attempts=3),
        ).run(2)
        assert result.completed == 2
        assert not result.failures
        kinds = [event.kind for event in injector.events]
        assert "retry" in kinds
        assert "recovery" in kinds
