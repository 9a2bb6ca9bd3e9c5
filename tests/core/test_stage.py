"""Tests for Stage, Chunk, Application and TaskGraph."""

import pytest

from repro.core import Application, Chunk, Stage, TaskGraph
from repro.errors import SchedulingError
from repro.soc import WorkProfile


def work():
    return WorkProfile(flops=1e6, bytes_moved=1e5, parallelism=100.0)


def noop(task):
    task.setdefault("ran", []).append(True)


def make_stage(name, cpu=noop, gpu=noop):
    return Stage(name=name, work=work(), kernels={"cpu": cpu, "gpu": gpu})


class TestStage:
    def test_kernel_lookup(self):
        stage = make_stage("s")
        assert stage.kernel("cpu") is noop
        assert stage.kernel("gpu") is noop

    def test_kernel_for_pu_maps_cpu_clusters_to_host_kernel(self):
        cpu_fn, gpu_fn = (lambda t: None), (lambda t: None)
        stage = Stage("s", work(), {"cpu": cpu_fn, "gpu": gpu_fn})
        assert stage.kernel_for_pu("big") is cpu_fn
        assert stage.kernel_for_pu("little") is cpu_fn
        assert stage.kernel_for_pu("gpu") is gpu_fn

    def test_model_only_stage_has_no_kernels(self):
        stage = Stage.model_only("s", work())
        with pytest.raises(SchedulingError):
            stage.kernel("cpu")

    def test_unknown_backend_rejected(self):
        with pytest.raises(SchedulingError):
            Stage("s", work(), {"tpu": noop})
        with pytest.raises(SchedulingError):
            make_stage("s").kernel("npu")

    def test_empty_name_rejected(self):
        with pytest.raises(SchedulingError):
            make_stage("")


class TestChunk:
    def test_length_and_indices(self):
        chunk = Chunk(start=2, stop=5, pu_class="big")
        assert len(chunk) == 3
        assert list(chunk.stage_indices) == [2, 3, 4]

    def test_bad_bounds(self):
        with pytest.raises(SchedulingError):
            Chunk(start=3, stop=3, pu_class="big")
        with pytest.raises(SchedulingError):
            Chunk(start=-1, stop=2, pu_class="big")


class TestApplication:
    def test_basic_lookup(self):
        app = Application("test", [make_stage("a"), make_stage("b")])
        assert app.num_stages == 2
        assert app.stage_names == ("a", "b")
        assert app.stage("b").name == "b"
        assert app.stage_index("b") == 1

    def test_duplicate_stage_names_rejected(self):
        with pytest.raises(SchedulingError):
            Application("t", [make_stage("a"), make_stage("a")])

    def test_empty_rejected(self):
        with pytest.raises(SchedulingError):
            Application("t", [])

    def test_unknown_stage(self):
        app = Application("t", [make_stage("a")])
        with pytest.raises(SchedulingError):
            app.stage("z")


class TestTaskGraph:
    def test_linear_graph_keeps_order(self):
        graph = TaskGraph()
        graph.add_stage(make_stage("a"))
        graph.add_stage(make_stage("b"), deps=("a",))
        graph.add_stage(make_stage("c"), deps=("b",))
        assert [s.name for s in graph.linearize()] == ["a", "b", "c"]

    def test_diamond_dependency(self):
        graph = TaskGraph()
        graph.add_stage(make_stage("a"))
        graph.add_stage(make_stage("b"), deps=("a",))
        graph.add_stage(make_stage("c"), deps=("a",))
        graph.add_stage(make_stage("d"), deps=("b", "c"))
        order = [s.name for s in graph.linearize()]
        assert order.index("a") < order.index("b") < order.index("d")
        assert order.index("a") < order.index("c") < order.index("d")

    def test_octree_style_multiway_dependency(self):
        """Mimics the paper's stage-7-depends-on-3,4,6 structure."""
        graph = TaskGraph()
        for name, deps in [
            ("s1", ()), ("s2", ("s1",)), ("s3", ("s2",)),
            ("s4", ("s3",)), ("s5", ("s4",)), ("s6", ("s5",)),
            ("s7", ("s3", "s4", "s6")),
        ]:
            graph.add_stage(make_stage(name), deps=deps)
        order = [s.name for s in graph.linearize()]
        assert order == ["s1", "s2", "s3", "s4", "s5", "s6", "s7"]

    def test_deterministic_among_ready(self):
        graph = TaskGraph()
        graph.add_stage(make_stage("z"))
        graph.add_stage(make_stage("a"))
        # Insertion order wins, not alphabetical.
        assert [s.name for s in graph.linearize()] == ["z", "a"]

    def test_cycle_detected(self):
        graph = TaskGraph()
        graph.add_stage(make_stage("a"))
        graph.add_stage(make_stage("b"), deps=("a",))
        graph._deps["a"].append("b")  # force a cycle
        with pytest.raises(SchedulingError):
            graph.linearize()

    def test_unknown_dependency_rejected(self):
        graph = TaskGraph()
        with pytest.raises(SchedulingError):
            graph.add_stage(make_stage("b"), deps=("missing",))

    def test_duplicate_stage_rejected(self):
        graph = TaskGraph()
        graph.add_stage(make_stage("a"))
        with pytest.raises(SchedulingError):
            graph.add_stage(make_stage("a"))

    def test_to_application(self):
        graph = TaskGraph()
        graph.add_stage(make_stage("a"))
        graph.add_stage(make_stage("b"), deps=("a",))
        app = graph.to_application("test")
        assert isinstance(app, Application)
        assert app.stage_names == ("a", "b")
