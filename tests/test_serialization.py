"""Tests for JSON persistence of framework artifacts."""

import json

import pytest

from repro.apps import build_octree_application
from repro.core.optimizer import BTOptimizer
from repro.core.profiler import BTProfiler
from repro.core.schedule import Schedule
from repro.core.serialization import (
    CHECKSUM_KEY,
    SerializationError,
    artifact_sha256,
    atomic_write_text,
    load,
    read_artifact,
    optimization_from_dict,
    optimization_to_dict,
    profiling_table_from_dict,
    profiling_table_to_dict,
    save,
    schedule_from_dict,
    schedule_to_dict,
)
from repro.soc import get_platform


@pytest.fixture(scope="module")
def pixel():
    return get_platform("pixel7a")


@pytest.fixture(scope="module")
def app():
    return build_octree_application(n_points=20_000)


@pytest.fixture(scope="module")
def table(pixel, app):
    return BTProfiler(pixel, repetitions=3).profile(app)


@pytest.fixture(scope="module")
def optimization(pixel, app, table):
    return BTOptimizer(
        app, table.restricted(pixel.schedulable_classes()), k=6
    ).optimize()


class TestProfilingTableRoundTrip:
    def test_round_trip_preserves_entries(self, table):
        restored = profiling_table_from_dict(profiling_table_to_dict(table))
        assert restored.stage_names == table.stage_names
        assert restored.pu_classes == table.pu_classes
        assert restored.mode == table.mode
        for stage in table.stage_names:
            for pu in table.pu_classes:
                assert restored.latency(stage, pu) == table.latency(
                    stage, pu
                )

    def test_file_round_trip(self, table, tmp_path):
        path = tmp_path / "table.json"
        save(table, path)
        restored = load(path)
        assert restored.latency(
            table.stage_names[0], table.pu_classes[0]
        ) == table.latency(table.stage_names[0], table.pu_classes[0])

    def test_malformed_rejected(self):
        with pytest.raises(SerializationError):
            profiling_table_from_dict(
                {"kind": "profiling_table", "version": 1}
            )

    def test_wrong_kind_rejected(self, table):
        data = profiling_table_to_dict(table)
        data["kind"] = "schedule"
        with pytest.raises(SerializationError):
            profiling_table_from_dict(data)

    def test_wrong_version_rejected(self, table):
        data = profiling_table_to_dict(table)
        data["version"] = 99
        with pytest.raises(SerializationError):
            profiling_table_from_dict(data)


class TestScheduleRoundTrip:
    def test_round_trip(self):
        schedule = Schedule.from_assignments(
            ["big", "big", "gpu", "little"]
        )
        restored = schedule_from_dict(schedule_to_dict(schedule))
        assert restored.assignments == schedule.assignments

    def test_contiguity_enforced_on_load(self):
        data = schedule_to_dict(Schedule.homogeneous(3, "big"))
        data["assignments"] = ["big", "gpu", "big"]
        from repro.errors import SchedulingError

        with pytest.raises(SchedulingError):
            schedule_from_dict(data)


class TestOptimizationRoundTrip:
    def test_round_trip_preserves_candidates(self, optimization):
        restored = optimization_from_dict(
            optimization_to_dict(optimization)
        )
        assert len(restored.candidates) == len(optimization.candidates)
        for a, b in zip(restored.candidates, optimization.candidates):
            assert a.rank == b.rank
            assert a.schedule.assignments == b.schedule.assignments
            assert a.predicted_latency_s == b.predicted_latency_s
        assert restored.gap_threshold_s == optimization.gap_threshold_s

    def test_restored_candidates_feed_autotuner(self, optimization, app,
                                                pixel, tmp_path):
        """A cached campaign can be resumed on-device (the operational
        point of serialization)."""
        from repro.core.autotuner import Autotuner

        path = tmp_path / "opt.json"
        save(optimization, path)
        restored = load(path)
        tuned = Autotuner(app, pixel, eval_tasks=8).tune(restored, top=3)
        assert len(tuned.entries) == 3


class TestFileDispatch:
    def test_load_dispatches_on_kind(self, table, tmp_path):
        table_path = tmp_path / "t.json"
        schedule_path = tmp_path / "s.json"
        save(table, table_path)
        save(Schedule.homogeneous(2, "gpu"), schedule_path)
        from repro.core.profiler import ProfilingTable

        assert isinstance(load(table_path), ProfilingTable)
        assert isinstance(load(schedule_path), Schedule)

    def test_unsupported_type_rejected(self, tmp_path):
        with pytest.raises(SerializationError):
            save(object(), tmp_path / "x.json")

    def test_untagged_file_rejected(self, tmp_path):
        path = tmp_path / "x.json"
        path.write_text(json.dumps({"hello": 1}))
        with pytest.raises(SerializationError):
            load(path)

    def test_unknown_kind_rejected(self, tmp_path):
        path = tmp_path / "x.json"
        path.write_text(json.dumps({"kind": "mystery", "version": 1}))
        with pytest.raises(SerializationError):
            load(path)

    def test_unreadable_file_rejected(self, tmp_path):
        with pytest.raises(SerializationError):
            load(tmp_path / "missing.json")


class TestAtomicWrite:
    def test_writes_content(self, tmp_path):
        path = tmp_path / "out.json"
        atomic_write_text(path, "hello")
        assert path.read_text() == "hello"

    def test_replaces_existing_file(self, tmp_path):
        path = tmp_path / "out.json"
        path.write_text("old")
        atomic_write_text(path, "new")
        assert path.read_text() == "new"

    def test_no_temp_litter_on_success(self, tmp_path):
        atomic_write_text(tmp_path / "out.json", "x")
        assert [p.name for p in tmp_path.iterdir()] == ["out.json"]

    def test_failed_write_leaves_target_untouched(self, tmp_path):
        path = tmp_path / "out.json"
        path.write_text("precious")

        with pytest.raises(TypeError):
            atomic_write_text(path, object())  # write() rejects non-str
        assert path.read_text() == "precious"
        assert [p.name for p in tmp_path.iterdir()] == ["out.json"]

    def test_save_is_atomic_over_existing_artifact(self, table,
                                                   tmp_path):
        path = tmp_path / "t.json"
        save(table, path)
        before = path.read_bytes()
        save(table, path)
        assert path.read_bytes() == before
        assert [p.name for p in tmp_path.iterdir()] == ["t.json"]


class TestChecksums:
    def test_saved_artifacts_carry_checksum(self, table, tmp_path):
        path = tmp_path / "t.json"
        save(table, path)
        data = json.loads(path.read_text())
        assert data[CHECKSUM_KEY] == artifact_sha256(data)

    def test_checksum_ignores_key_order(self, table):
        data = profiling_table_to_dict(table)
        shuffled = dict(reversed(list(data.items())))
        assert artifact_sha256(data) == artifact_sha256(shuffled)

    def test_flipped_checksum_rejected_with_both_values(self, table,
                                                        tmp_path):
        path = tmp_path / "t.json"
        save(table, path)
        data = json.loads(path.read_text())
        good = data[CHECKSUM_KEY]
        bad = ("0" if good[0] != "0" else "1") + good[1:]
        data[CHECKSUM_KEY] = bad
        path.write_text(json.dumps(data))
        with pytest.raises(SerializationError) as excinfo:
            load(path)
        message = str(excinfo.value)
        assert str(path) in message
        assert f"expected {good}" in message
        assert f"found {bad}" in message

    def test_tampered_payload_rejected(self, table, tmp_path):
        path = tmp_path / "t.json"
        save(table, path)
        data = json.loads(path.read_text())
        data["mode"] = "isolated"  # silent flip of a semantic field
        path.write_text(json.dumps(data))
        with pytest.raises(SerializationError, match="checksum mismatch"):
            load(path)

    def test_truncated_file_rejected_with_path(self, table, tmp_path):
        path = tmp_path / "t.json"
        save(table, path)
        path.write_text(path.read_text()[:60])
        with pytest.raises(SerializationError) as excinfo:
            load(path)
        assert str(path) in str(excinfo.value)

    def test_legacy_file_without_checksum_loads(self, table, tmp_path):
        """Artifacts written before checksumming stay readable."""
        path = tmp_path / "t.json"
        data = profiling_table_to_dict(table)
        assert CHECKSUM_KEY not in data  # dicts are checksum-free
        path.write_text(json.dumps(data))
        restored = load(path)
        assert restored.mode == table.mode


class TestErrorMessagesNamePath:
    def test_wrong_kind_names_path_and_values(self, table, tmp_path):
        path = tmp_path / "t.json"
        save(table, path)
        data = json.loads(path.read_text())
        data["kind"] = "schedule"
        del data[CHECKSUM_KEY]
        path.write_text(json.dumps(data))
        with pytest.raises(SerializationError) as excinfo:
            read_artifact(path, kind="profiling_table")
        message = str(excinfo.value)
        assert str(path) in message
        assert "expected kind 'profiling_table'" in message
        assert "found 'schedule'" in message

    def test_wrong_version_names_both_versions(self, table, tmp_path):
        path = tmp_path / "t.json"
        data = profiling_table_to_dict(table)
        data["version"] = 99
        path.write_text(json.dumps(data))
        with pytest.raises(SerializationError) as excinfo:
            read_artifact(path, kind="profiling_table")
        assert "version 1" in str(excinfo.value)
        assert "found 99" in str(excinfo.value)

    def test_missing_file_names_path(self, tmp_path):
        missing = tmp_path / "gone.json"
        with pytest.raises(SerializationError) as excinfo:
            read_artifact(missing)
        assert str(missing) in str(excinfo.value)

    @pytest.mark.parametrize(
        "assignments", ["abc", 5, None, [1, 2], [["big"]]],
        ids=["string", "int", "null", "ints", "nested"],
    )
    def test_assignments_must_be_a_list_of_names(
        self, assignments, optimization, tmp_path,
    ):
        """A string is not read as one stage per character, and a
        non-list is a SerializationError naming the file, not a bare
        TypeError - for a schedule and for a candidate alike."""
        schedule = schedule_to_dict(Schedule.homogeneous(3, "big"))
        result = optimization_to_dict(optimization)
        result["candidates"][0]["assignments"] = assignments
        schedule["assignments"] = assignments
        for name, data in (("s.json", schedule), ("o.json", result)):
            path = tmp_path / name
            path.write_text(json.dumps(data))  # no checksum: loads as-is
            with pytest.raises(SerializationError) as excinfo:
                load(path)
            assert str(path) in str(excinfo.value)


class TestDegradedFlagRoundTrip:
    def test_degraded_survives_round_trip(self, optimization):
        data = optimization_to_dict(optimization)
        assert data["degraded"] is False
        data["degraded"] = True
        restored = optimization_from_dict(data)
        assert restored.degraded is True

    def test_legacy_dict_defaults_to_exact(self, optimization):
        data = optimization_to_dict(optimization)
        del data["degraded"]
        assert optimization_from_dict(data).degraded is False


class TestJsonReportMetricsSnapshot:
    """write_json_report attaches the obs metrics snapshot only while a
    capture is active, so uninstrumented reports stay byte-identical."""

    def test_disabled_registry_leaves_bytes_untouched(self, tmp_path):
        from repro.core.serialization import write_json_report

        plain, again = tmp_path / "a.json", tmp_path / "b.json"
        write_json_report(plain, {"x": 1})
        write_json_report(again, {"x": 1})
        assert plain.read_bytes() == again.read_bytes()
        assert "metrics" not in json.loads(plain.read_text())

    def test_enabled_registry_snapshot_rides_along(self, tmp_path):
        from repro.obs import capture
        from repro.core.serialization import write_json_report

        path = tmp_path / "r.json"
        with capture() as cap:
            cap.metrics.counter("solver.nodes", 5)
            write_json_report(path, {"x": 1})
        data = json.loads(path.read_text())
        assert data["x"] == 1
        assert data["metrics"]["counters"]["solver.nodes"] == 5

    def test_explicit_metrics_key_not_overwritten(self, tmp_path):
        from repro.obs import capture
        from repro.core.serialization import write_json_report

        path = tmp_path / "r.json"
        with capture():
            write_json_report(path, {"metrics": "mine"})
        assert json.loads(path.read_text())["metrics"] == "mine"

    def test_caller_payload_not_mutated(self):
        from repro.obs import capture
        from repro.core.serialization import write_json_report
        import tempfile, os

        payload = {"x": 1}
        with capture():
            handle, name = tempfile.mkstemp()
            os.close(handle)
            try:
                write_json_report(name, payload)
            finally:
                os.unlink(name)
        assert payload == {"x": 1}
