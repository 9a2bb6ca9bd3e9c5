"""Tests for the threaded pipeline executor (functional back-end)."""

import threading

import numpy as np
import pytest

from repro.core import Application, Chunk, Stage
from repro.errors import PipelineError
from repro.runtime import ThreadedPipelineExecutor
from repro.soc import WorkProfile


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


class TestThreadedExecutor:
    def test_single_chunk(self):
        app = make_counting_app(3)
        executor = ThreadedPipelineExecutor(app, [Chunk(0, 3, "big")])
        result = executor.run(5, validate=True)
        assert result.n_tasks == 5
        assert result.chunk_stage_counts == {0: 15}

    def test_multi_chunk_splits_work(self):
        app = make_counting_app(4)
        chunks = [Chunk(0, 2, "big"), Chunk(2, 4, "gpu")]
        result = ThreadedPipelineExecutor(app, chunks).run(6, validate=True)
        assert result.chunk_stage_counts == {0: 12, 1: 12}

    def test_on_complete_sees_every_task(self):
        app = make_counting_app(2)
        seen = []
        ThreadedPipelineExecutor(
            app, [Chunk(0, 1, "big"), Chunk(1, 2, "little")]
        ).run(7, on_complete=lambda task, i: seen.append(i))
        assert seen == list(range(7))

    def test_task_objects_recycled(self):
        app = make_counting_app(2)
        ids = set()
        executor = ThreadedPipelineExecutor(app, [Chunk(0, 2, "big")])
        executor.run(8, on_complete=lambda task, i: ids.add(id(task)))
        assert len(ids) == 2  # 8 tasks flowed through 2 objects

    def test_inputs_differ_per_task(self):
        app = make_counting_app(1)
        seeds = []
        ThreadedPipelineExecutor(app, [Chunk(0, 1, "big")]).run(
            4, on_complete=lambda task, i: seeds.append(
                int(np.asarray(task["seed"])[0]))
        )
        assert seeds == [0, 1, 2, 3]

    def test_validation_failure_propagates(self):
        app = make_counting_app(2)
        bad = Application(
            "bad", app.stages, make_task=app.make_task,
            validate_task=lambda task: (_ for _ in ()).throw(
                ValueError("boom")),
        )
        with pytest.raises(ValueError):
            ThreadedPipelineExecutor(bad, [Chunk(0, 2, "big")]).run(
                1, validate=True
            )

    def test_kernel_exception_surfaces(self):
        def explode(task):
            raise RuntimeError("kernel crash")

        stage = Stage("s0", work(), {"cpu": explode, "gpu": explode})
        app = Application(
            "crashy", [stage],
            make_task=lambda seed: {"x": np.zeros(1)},
        )
        with pytest.raises(PipelineError):
            ThreadedPipelineExecutor(app, [Chunk(0, 1, "big")]).run(2)

    def test_kernel_raises_on_task_k_unwinds_with_true_count(self):
        """Crash mid-stream: the pipeline unwinds (no hang), the error
        surfaces chained, and the message reports how far it got."""
        n_stages, crash_at = 3, 2

        def maybe_explode(task):
            if int(np.asarray(task["seed"])[0]) == crash_at:
                raise RuntimeError("kernel crash on task 2")
            task["trace"][0] = 1

        def passthrough(task):
            trace = task["trace"]
            trace[1:] = trace[0] + np.arange(1, n_stages)

        stages = [
            Stage("s0", work(),
                  {"cpu": maybe_explode, "gpu": maybe_explode}),
            Stage("s1", work(), {"cpu": passthrough, "gpu": passthrough}),
            Stage("s2", work(), {"cpu": lambda t: None,
                                 "gpu": lambda t: None}),
        ]
        app = Application(
            "crash-at-k", stages,
            make_task=lambda seed: {
                "trace": np.zeros(n_stages, dtype=np.int64),
                "seed": np.array([seed], dtype=np.int64),
            },
        )
        executor = ThreadedPipelineExecutor(
            app, [Chunk(0, 2, "big"), Chunk(2, 3, "gpu")],
            queue_timeout_s=10.0,
        )
        with pytest.raises(PipelineError) as info:
            executor.run(6)
        assert isinstance(info.value.__cause__, RuntimeError)
        assert "of 6 tasks" in str(info.value)

    def test_unexplained_early_shutdown_raises(self):
        """A queue closing under the driver with no dispatcher error
        must raise, not return a result claiming every task finished."""

        def sneaky(task):
            # Kernels run on the dispatcher thread; closing its input
            # queue models an external wedge/shutdown with no error.
            if int(np.asarray(task["seed"])[0]) == 1:
                threading.current_thread().in_queue.close()

        stage = Stage("s0", work(), {"cpu": sneaky, "gpu": sneaky})
        app = Application(
            "wedged", [stage],
            make_task=lambda seed: {
                "seed": np.array([seed], dtype=np.int64)},
        )
        executor = ThreadedPipelineExecutor(
            app, [Chunk(0, 1, "big")], queue_timeout_s=10.0,
        )
        with pytest.raises(PipelineError) as info:
            executor.run(6)
        assert "shut down early" in str(info.value)
        assert "of 6" in str(info.value)

    def test_result_reports_completed_count(self):
        app = make_counting_app(2)
        result = ThreadedPipelineExecutor(
            app, [Chunk(0, 2, "big")]
        ).run(5)
        assert result.completed == 5
        assert result.failures == []
        assert result.succeeded == 5

    def test_needs_task_factory(self):
        stage = Stage("s0", work(), {"cpu": lambda t: None,
                                     "gpu": lambda t: None})
        app = Application("nofactory", [stage])
        with pytest.raises(PipelineError):
            ThreadedPipelineExecutor(app, [Chunk(0, 1, "big")])

    def test_zero_tasks_rejected(self):
        app = make_counting_app(1)
        executor = ThreadedPipelineExecutor(app, [Chunk(0, 1, "big")])
        with pytest.raises(PipelineError):
            executor.run(0)


class TestChunkCoverValidation:
    def make_executor(self, chunks):
        app = make_counting_app(4)
        return ThreadedPipelineExecutor(app, chunks)

    def test_gap_rejected(self):
        with pytest.raises(PipelineError):
            self.make_executor([Chunk(0, 2, "big"), Chunk(3, 4, "gpu")])

    def test_overlap_rejected(self):
        with pytest.raises(PipelineError):
            self.make_executor([Chunk(0, 3, "big"), Chunk(2, 4, "gpu")])

    def test_short_cover_rejected(self):
        with pytest.raises(PipelineError):
            self.make_executor([Chunk(0, 3, "big")])

    def test_duplicate_pu_rejected(self):
        with pytest.raises(PipelineError):
            self.make_executor([
                Chunk(0, 1, "big"), Chunk(1, 3, "gpu"), Chunk(3, 4, "big"),
            ])

    def test_empty_rejected(self):
        with pytest.raises(PipelineError):
            self.make_executor([])


class TestSchedulePermutationEquivalence:
    """The octree must come out identical under any valid schedule -
    the core functional guarantee BT-Implementer relies on."""

    def test_octree_outputs_identical_across_schedules(self):
        from repro.apps import build_octree_application

        app = build_octree_application(n_points=400)
        outputs = []
        for chunks in (
            [Chunk(0, 7, "big")],
            [Chunk(0, 2, "gpu"), Chunk(2, 7, "big")],
            [Chunk(0, 3, "little"), Chunk(3, 5, "gpu"),
             Chunk(5, 7, "medium")],
        ):
            snapshot = {}

            def capture(task, index, snapshot=snapshot):
                if index == 0:
                    n = int(np.asarray(task["oc_num_cells"])[0])
                    snapshot["cells"] = n
                    snapshot["levels"] = np.asarray(
                        task["oc_level"])[:n].copy()
                    snapshot["codes"] = np.asarray(
                        task["oc_code"])[:n].copy()

            ThreadedPipelineExecutor(app, chunks).run(
                1, on_complete=capture, validate=True
            )
            outputs.append(snapshot)
        first = outputs[0]
        for other in outputs[1:]:
            assert other["cells"] == first["cells"]
            np.testing.assert_array_equal(other["levels"], first["levels"])
            np.testing.assert_array_equal(other["codes"], first["codes"])
