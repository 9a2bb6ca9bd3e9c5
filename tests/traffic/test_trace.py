"""TrafficTrace: record, persist (checksummed), load, replay surface."""

import json

import pytest

from repro.errors import TrafficError
from repro.core.serialization import SerializationError
from repro.traffic import TRACE_KIND, TrafficGenerator, TrafficTrace
from repro.traffic.generator import ArrivalEvent


@pytest.fixture()
def trace(small_spec):
    return TrafficTrace.record(small_spec, seed=5)


class TestRecord:
    def test_record_freezes_generator_stream(self, small_spec, trace):
        assert list(trace.events) == TrafficGenerator(
            small_spec, seed=5
        ).events()
        assert trace.seed == 5
        assert trace.spec == small_spec

    def test_rejects_out_of_order_events(self, small_spec):
        events = TrafficGenerator(small_spec, seed=5).events()
        assert len(events) >= 2
        with pytest.raises(TrafficError, match="non-decreasing"):
            TrafficTrace(spec=small_spec, seed=5,
                         events=tuple(reversed(events)))

    def test_rejects_events_beyond_horizon(self, small_spec):
        rogue = ArrivalEvent(
            tick=small_spec.ticks, name="user-99999", tier="gold",
            priority=2, windows=2, window_tasks=6,
            app_kind="synthetic", app_seed=5,
        )
        with pytest.raises(TrafficError, match="horizon"):
            TrafficTrace(spec=small_spec, seed=5, events=(rogue,))


class TestPersistence:
    def test_save_load_round_trip(self, trace, tmp_path):
        path = tmp_path / "trace.json"
        trace.save(path)
        assert TrafficTrace.load(path) == trace

    def test_save_is_byte_deterministic(self, trace, tmp_path):
        first = tmp_path / "first.json"
        second = tmp_path / "second.json"
        trace.save(first)
        trace.save(second)
        assert first.read_bytes() == second.read_bytes()

    def test_artifact_is_tagged(self, trace, tmp_path):
        path = tmp_path / "trace.json"
        trace.save(path)
        assert json.loads(path.read_text())["kind"] == TRACE_KIND

    def test_tampered_file_fails_checksum(self, trace, tmp_path):
        path = tmp_path / "trace.json"
        trace.save(path)
        data = json.loads(path.read_text())
        data["seed"] = trace.seed + 1
        path.write_text(json.dumps(data))
        with pytest.raises(SerializationError, match="checksum"):
            TrafficTrace.load(path)

    def test_malformed_payload_is_structured_error(
        self, trace, tmp_path
    ):
        from repro.core.serialization import write_artifact

        path = tmp_path / "trace.json"
        payload = trace.to_payload()
        del payload["events"]
        write_artifact(path, TRACE_KIND, payload)
        with pytest.raises(SerializationError, match="malformed"):
            TrafficTrace.load(path)

    @pytest.mark.parametrize("corrupt,match", [
        (lambda events: events[0].update(tier="platinum"),
         "tier 'platinum'"),
        (lambda events: events[1].update(name=events[0]["name"]),
         "appears twice"),
    ], ids=["unknown-tier", "repeated-name"])
    def test_load_rejects_a_stream_replay_cannot_run(
        self, trace, tmp_path, corrupt, match
    ):
        # A well-formed, checksummed artifact whose events would break
        # a replay: load refuses it before any tick runs.
        from repro.core.serialization import write_artifact

        path = tmp_path / "trace.json"
        payload = trace.to_payload()
        assert len(payload["events"]) >= 2
        corrupt(payload["events"])
        write_artifact(path, TRACE_KIND, payload)
        with pytest.raises(TrafficError, match=match):
            TrafficTrace.load(path)

    @pytest.mark.parametrize("corrupt,match", [
        (lambda payload: payload["events"][0].update(tick=-1),
         "at tick -1 is outside"),
        (lambda payload: payload["events"][0].update(tick=2.9),
         "field 'tick'"),
        (lambda payload: payload["events"][0].update(priority=True),
         "field 'priority'"),
        (lambda payload: payload["events"][0].update(windows="2"),
         "field 'windows'"),
        (lambda payload: payload["spec"].update(ticks=24.0),
         "field 'ticks'"),
        (lambda payload: payload["spec"]["tiers"][0].update(
            window_tasks=True), "field 'window_tasks'"),
        (lambda payload: payload.update(seed="7"), "field 'seed'"),
    ], ids=["negative-tick", "float-tick", "bool-priority",
            "string-windows", "float-spec-ticks", "bool-tier-tasks",
            "string-seed"])
    def test_load_rejects_what_a_replay_would_drop_or_rewrite(
        self, trace, tmp_path, corrupt, match
    ):
        # Re-checksummed, so only validation stands between the edit
        # and a replay that silently drops the arrival (tick -1 is
        # never submitted) or runs a stream nobody recorded (int()
        # would read 2.9 as 2, true as 1, "2" as 2).
        from repro.core.serialization import write_artifact

        path = tmp_path / "trace.json"
        payload = trace.to_payload()
        corrupt(payload)
        write_artifact(path, TRACE_KIND, payload)
        with pytest.raises(TrafficError, match=match):
            TrafficTrace.load(path)
