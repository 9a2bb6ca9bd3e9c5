"""Tests for the command-line interface."""

import json

import pytest

from repro.cli import main
from repro.core import BetterTogether
from repro.traffic import SoakScenario


class TestListing:
    def test_platforms(self, capsys):
        assert main(["platforms"]) == 0
        out = capsys.readouterr().out
        assert "pixel7a" in out
        assert "raspberry_pi5" in out
        assert "* = part of the paper's evaluation grid" in out

    def test_apps(self, capsys):
        assert main(["apps"]) == 0
        out = capsys.readouterr().out
        assert "alexnet-dense" in out
        assert "octree" in out


class TestProfile:
    def test_prints_table(self, capsys):
        code = main([
            "profile", "--platform", "jetson_orin_nano",
            "--app", "octree", "--repetitions", "2",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "radix-tree" in out
        assert "gpu" in out

    def test_saves_table(self, tmp_path, capsys):
        path = tmp_path / "table.json"
        main([
            "profile", "--platform", "jetson_orin_nano",
            "--app", "octree", "--repetitions", "2",
            "--mode", "isolated", "--out", str(path),
        ])
        from repro.core.serialization import load

        table = load(path)
        assert table.mode == "isolated"
        assert table.platform == "jetson_orin_nano"

    def test_unknown_platform_structured_error(self, capsys):
        assert main(["profile", "--platform", "iphone15"]) == 2
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "PlatformError"
        assert "iphone15" in err["message"]

    def test_unknown_app_structured_error(self, capsys):
        assert main(["profile", "--app", "resnet"]) == 2
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "ReproError"
        assert "resnet" in err["message"]


class TestPlan:
    def test_plan_prints_summary(self, capsys, tmp_path):
        path = tmp_path / "schedule.json"
        code = main([
            "plan", "--platform", "jetson_orin_nano", "--app", "octree",
            "--repetitions", "2", "--k", "4", "--eval-tasks", "6",
            "--out", str(path),
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "BetterTogether plan" in out
        from repro.core.serialization import load

        schedule = load(path)
        assert schedule.num_stages == 7


class TestBaselinesAndGantt:
    def test_baselines(self, capsys):
        code = main([
            "baselines", "--platform", "pixel7a", "--app", "octree",
            "--eval-tasks", "6",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "CPU-only" in out and "GPU-only" in out

    def test_gantt(self, capsys):
        code = main([
            "gantt", "--platform", "jetson_orin_nano", "--app", "octree",
            "--repetitions", "2", "--k", "3", "--eval-tasks", "6",
            "--tasks", "4", "--width", "40",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "chunk 0" in out
        assert "ms" in out


class TestFaultsim:
    def test_recovery_report_and_json(self, capsys, tmp_path):
        path = tmp_path / "faults.json"
        code = main([
            "faultsim", "--platform", "jetson_orin_nano",
            "--app", "octree", "--repetitions", "2", "--k", "4",
            "--eval-tasks", "6", "--tasks", "5", "--seed", "1",
            "--out", str(path),
        ])
        assert code == 0
        out, err = capsys.readouterr()
        assert "threaded phase" in out
        assert "fault/recovery report" in out
        assert "dropout phase" in out
        assert "fallback=True" in out
        assert "saved to" not in out
        assert err == f"structured report saved to {path}\n"
        import json

        structured = json.loads(path.read_text())
        assert structured["threaded"]["counts"].get("recovery")
        assert structured["dropout"]["counts"] == {"pu-dropout": 1,
                                                  "fallback": 1}

    def test_no_dropout_flag(self, capsys):
        code = main([
            "faultsim", "--platform", "raspberry_pi5", "--app",
            "octree", "--repetitions", "2", "--k", "3",
            "--eval-tasks", "6", "--tasks", "3",
            "--kernel-fault-rate", "0.0", "--no-dropout",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "0 faults planned" in out
        assert "no faults injected" in out
        assert "dropout phase" not in out

    @pytest.mark.parametrize("fail_attempts", ["0", "-1"])
    def test_fail_attempts_below_one_is_structured_error(
            self, capsys, fail_attempts):
        # A fault that fails no attempt would be planned and never fire.
        code = main([
            "faultsim", "--platform", "raspberry_pi5", "--app",
            "octree", "--repetitions", "2", "--k", "3",
            "--eval-tasks", "6", "--tasks", "3",
            "--fail-attempts", fail_attempts, "--no-dropout",
        ])
        assert code == 2
        err = json.loads(capsys.readouterr().err)
        assert err == {"error": "PipelineError",
                       "message": "fail_attempts must be >= 1"}

    def test_fault_flags_are_checked_before_the_plan(self, capsys):
        # A bad flag stops the command before it plans: no summary.
        code = main([
            "faultsim", "--platform", "raspberry_pi5", "--app",
            "octree", "--repetitions", "2", "--k", "3",
            "--eval-tasks", "6", "--tasks", "3", "--max-attempts", "0",
        ])
        assert code == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert json.loads(err)["error"] == "PipelineError"


class TestRun:
    ARGS = ["run", "--platform", "jetson_orin_nano", "--app", "octree",
            "--repetitions", "2", "--k", "3", "--eval-tasks", "4"]

    def test_without_session_behaves_like_plan(self, capsys):
        assert main(self.ARGS) == 0
        out = capsys.readouterr().out
        assert "BetterTogether plan" in out
        assert "campaign session" not in out

    def test_session_checkpoints_and_resumes(self, capsys, tmp_path):
        session = tmp_path / "campaign"
        assert main(self.ARGS + ["--session", str(session)]) == 0
        first = capsys.readouterr().out
        assert "0 reused, 14 measured" in first
        assert (session / "manifest.json").exists()
        assert (session / "schedule.json").exists()

        assert main(self.ARGS + ["--resume", str(session)]) == 0
        second = capsys.readouterr().out
        assert "14 reused, 0 measured" in second
        assert "optimization: reused" in second
        assert "3 reused, 0 run" in second

    def test_resume_missing_session_structured_error(self, capsys,
                                                     tmp_path):
        code = main(self.ARGS + ["--resume", str(tmp_path / "nope")])
        assert code == 2
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "CampaignError"
        assert "no session manifest" in err["message"]

    def test_parameter_mismatch_structured_error(self, capsys, tmp_path):
        session = tmp_path / "campaign"
        assert main(self.ARGS + ["--session", str(session)]) == 0
        capsys.readouterr()
        changed = [arg if arg != "2" else "3" for arg in self.ARGS]
        assert main(changed + ["--session", str(session)]) == 2
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "CampaignError"
        assert "repetitions" in err["message"]


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            main([])

    def test_unknown_command(self):
        with pytest.raises(SystemExit):
            main(["frobnicate"])


class TestAnalyze:
    def test_analyze_prints_all_sections(self, capsys):
        code = main([
            "analyze", "--platform", "jetson_orin_nano", "--app",
            "octree", "--repetitions", "2", "--k", "4",
            "--eval-tasks", "6",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "PU affinities" in out
        assert "speedup ceiling" in out
        assert "bottleneck" in out
        assert "MiB" in out


class TestListingJson:
    def test_platforms_json(self, capsys):
        assert main(["platforms", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        names = [row["name"] for row in payload["platforms"]]
        assert "pixel7a" in names
        pixel = next(r for r in payload["platforms"]
                     if r["name"] == "pixel7a")
        assert pixel["paper_grid"] is True
        assert "gpu" in pixel["schedulable_classes"]

    def test_apps_json(self, capsys):
        assert main(["apps", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        octree = next(r for r in payload["applications"]
                      if r["name"] == "octree")
        assert octree["stages"] >= 2
        assert octree["input_kind"]

    def test_listing_out_uses_the_report_sink(self, tmp_path, capsys):
        path = tmp_path / "platforms.json"
        assert main(["platforms", "--out", str(path)]) == 0
        payload = json.loads(path.read_text())
        assert {row["name"] for row in payload["platforms"]} >= {
            "pixel7a", "raspberry_pi5"
        }


class TestServe:
    def test_soak_serves_and_rejects(self, capsys, tmp_path):
        path = tmp_path / "serve.json"
        code = main([
            "serve", "--windows", "8", "--tasks", "6",
            "--out", str(path),
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "tenant-drift" in out
        assert "rejected" in out
        payload = json.loads(path.read_text())
        assert payload["tenants"]["tenant-probe"]["status"] == "rejected"
        assert payload["tenants"]["tenant-drift"]["reschedules"] >= 1

    def test_gantt_renders_tenant_sections(self, capsys):
        code = main([
            "serve", "--windows", "8", "--tasks", "6",
            "--gantt", "--width", "40",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "tenant tenant-drift:" in out
        assert "tenant tenant-gpu:" in out

    def test_long_soak_gets_a_tick_budget_for_its_windows(self, capsys):
        # The budget follows --windows: 60 windows outlast a fixed 48.
        code = main([
            "serve", "--windows", "60", "--tasks", "6", "--json",
        ])
        assert code == 0
        tenants = json.loads(capsys.readouterr().out)["tenants"]
        assert {name: row["status"] for name, row in tenants.items()} == {
            "tenant-gpu": "completed", "tenant-drift": "completed",
            "tenant-bg": "completed", "tenant-probe": "rejected",
        }
        assert tenants["tenant-gpu"]["windows_served"] == 60

    def test_too_few_windows_structured_error(self, capsys):
        assert main(["serve", "--windows", "4"]) == 2
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "ServeError"
        assert "8 windows" in err["message"]

    def test_json_mode_stdout_is_pure_json(self, capsys):
        # The whole point of the text sink: --json must never mix the
        # human summary (or gantt) into the machine-readable stream.
        code = main([
            "serve", "--windows", "8", "--tasks", "6",
            "--json", "--gantt",
        ])
        assert code == 0
        out = capsys.readouterr().out
        payload = json.loads(out)  # raises if any stray line leaked
        assert payload["tenants"]["tenant-probe"]["status"] == "rejected"
        assert "tenant tenant-drift:" in payload["gantt"]

    def test_trace_out_exports_chrome_trace(self, capsys, tmp_path):
        path = tmp_path / "soak_trace.json"
        code = main([
            "serve", "--windows", "8", "--tasks", "6",
            "--trace-out", str(path),
        ])
        assert code == 0
        trace = json.loads(path.read_text())
        assert trace["displayTimeUnit"] == "ms"
        categories = {e.get("cat") for e in trace["traceEvents"]}
        assert {"profiler", "solver", "runtime", "serve"} <= categories
        assert trace["otherData"]["metrics"]["counters"]

    def test_trace_out_report_carries_metrics(self, capsys, tmp_path):
        trace_path = tmp_path / "trace.json"
        report_path = tmp_path / "report.json"
        code = main([
            "serve", "--windows", "8", "--tasks", "6",
            "--trace-out", str(trace_path), "--out", str(report_path),
        ])
        assert code == 0
        report = json.loads(report_path.read_text())
        assert report["metrics"]["counters"]["admission.admits"] >= 1


class TestFleet:
    def test_soak_recovers_from_all_three_failures(
        self, capsys, tmp_path
    ):
        path = tmp_path / "fleet.json"
        code = main(["fleet", "--out", str(path)])
        assert code == 0
        out = capsys.readouterr().out
        assert "fleet of 4 shards" in out
        assert "failover" in out
        payload = json.loads(path.read_text())
        assert payload["counts"]["failover"] == 3
        assert payload["surviving_tenants"] >= 11
        statuses = {t["status"]
                    for t in payload["tenants"].values()}
        assert statuses <= {"completed", "shed"}
        assert isinstance(payload["surviving_p95_slowdown"], float)
        assert payload["shards"]["soc1"]["generation"] == 2

    def test_json_mode_stdout_is_pure_json(self, capsys):
        code = main(["fleet", "--json"])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["failover_enabled"] is True
        assert payload["n_shards"] == 4

    def test_no_failover_baseline_strands_tenants(self, capsys):
        code = main(["fleet", "--no-failover", "--json"])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["failover_enabled"] is False
        assert "failover" not in payload["counts"]
        assert any(t["status"] == "failed"
                   for t in payload["tenants"].values())

    def test_trace_out_exports_chrome_trace(self, capsys, tmp_path):
        trace_path = tmp_path / "fleet_trace.json"
        report_path = tmp_path / "fleet.json"
        code = main([
            "fleet", "--trace-out", str(trace_path),
            "--out", str(report_path),
        ])
        assert code == 0
        trace = json.loads(trace_path.read_text())
        assert trace["displayTimeUnit"] == "ms"
        categories = {e.get("cat") for e in trace["traceEvents"]}
        assert {"fleet", "serve"} <= categories
        report = json.loads(report_path.read_text())
        counters = report["metrics"]["counters"]
        assert counters["fleet.failovers"] == 3
        assert counters["breaker.transitions"] >= 3

    def test_scenario_validation_is_structured(self, capsys):
        assert main(["fleet", "--shards", "2"]) == 2
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "FleetError"
        assert "4" in err["message"]


class TestTrace:
    def test_offline_trace_prints_chrome_json(self, capsys):
        code = main([
            "trace", "--repetitions", "2", "--k", "4",
            "--eval-tasks", "4", "--tasks", "4",
        ])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        categories = {e.get("cat") for e in payload["traceEvents"]}
        assert {"profiler", "solver", "runtime"} <= categories

    def test_serve_trace_writes_file(self, capsys, tmp_path):
        path = tmp_path / "trace.json"
        code = main([
            "trace", "--serve", "--windows", "8", "--tasks", "6",
            "--export", "perfetto", "--out", str(path),
        ])
        assert code == 0
        assert capsys.readouterr().out == ""  # file mode: clean stdout
        trace = json.loads(path.read_text())
        assert any(e["ph"] == "X" for e in trace["traceEvents"])

    def test_gantt_export(self, capsys):
        code = main([
            "trace", "--serve", "--windows", "8", "--tasks", "6",
            "--export", "gantt", "--width", "40",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "tenant tenant-drift:" in out


class TestSubmit:
    def test_submission_completes_under_contention(self, capsys):
        code = main([
            "submit", "--app", "octree", "--co", "1",
            "--windows", "3", "--require", "gpu",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "outcome: completed" in out
        assert "gpu" in out

    def test_queued_submission_gets_ticks_to_finish(self, capsys):
        # One partition slot and a one-deep queue: the job waits behind
        # its co-tenants, and still serves all its windows.
        code = main([
            "submit", "--co", "4", "--cap", "1", "--queue-capacity", "1",
            "--windows", "20", "--seed", "7",
        ])
        out = capsys.readouterr().out
        assert code == 0, out
        assert "outcome: completed" in out
        assert "windows served: 20," in out

    @pytest.mark.parametrize("co", ["-1", "-2"])
    def test_negative_co_tenant_count_is_structured_error(self, capsys,
                                                          co):
        assert main(["submit", "--co", co, "--windows", "8"]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert json.loads(err) == {"error": "ReproError",
                                   "message": f"--co must be >= 0, got {co}"}


class TestTraffic:
    SMALL = ["--ticks", "10", "--shards", "1", "--multiplier", "1.0"]

    def test_generate_records_trace(self, capsys, tmp_path):
        path = tmp_path / "trace.json"
        code = main([
            "traffic", "generate", *self.SMALL,
            "--trace-out", str(path), "--json",
        ])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["arrivals"] > 0
        assert payload["offered_windows"] > 0
        assert set(payload["by_tier"]) <= {"gold", "silver", "bronze"}
        assert json.loads(path.read_text())["kind"] == "traffic_trace"

    def test_replay_reproduces_soak_report(self, capsys, tmp_path):
        trace = tmp_path / "trace.json"
        live = tmp_path / "live.json"
        replayed = tmp_path / "replayed.json"
        assert main([
            "traffic", "soak", *self.SMALL,
            "--trace-out", str(trace), "--out", str(live),
        ]) == 0
        assert main([
            "traffic", "replay", *self.SMALL,
            "--trace", str(trace), "--out", str(replayed),
        ]) == 0
        capsys.readouterr()
        assert live.read_bytes() == replayed.read_bytes()

    def test_replay_without_trace_is_structured_error(self, capsys):
        assert main(["traffic", "replay", *self.SMALL]) == 2
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "ReproError"
        assert "--trace" in err["message"]

    def test_soak_human_output(self, capsys):
        code = main(["traffic", "soak", *self.SMALL])
        assert code == 0
        out = capsys.readouterr().out
        assert "open-loop run" in out
        assert "tiers:" in out

    def test_default_soak_compare_passes_gate(self, capsys):
        # The shipped overload scenario: admission control must
        # strictly beat admit-everything on goodput.
        code = main(["traffic", "soak", "--compare"])
        assert code == 0
        out = capsys.readouterr().out
        assert "admission gate" in out
        assert "PASS" in out

    def test_curve_sweeps_load(self, capsys):
        code = main([
            "traffic", "soak", *self.SMALL, "--curve", "--json",
        ])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        multipliers = [p["load_multiplier"] for p in payload["curve"]]
        assert multipliers == [0.5, 1.0, 1.5, 2.0]


class TestWidthBelowOne:
    """A chart width below 1 is a structured error, raised before
    anything is planned or simulated."""

    @pytest.fixture(autouse=True)
    def nothing_runs(self, monkeypatch):
        def ran(*args, **kwargs):
            raise AssertionError("the command planned or simulated")

        monkeypatch.setattr(BetterTogether, "run", ran)
        monkeypatch.setattr(SoakScenario, "driver", ran)

    def refused(self, capsys, argv, width):
        assert main(argv + ["--width", width]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert json.loads(err) == {
            "error": "ReproError",
            "message": f"--width must be >= 1, got {width}"}

    @pytest.mark.parametrize("width", ["-1", "0"])
    def test_gantt(self, capsys, width):
        self.refused(capsys, ["gantt"], width)

    @pytest.mark.parametrize("width", ["-1", "0"])
    def test_trace_gantt_export(self, capsys, width):
        self.refused(capsys, ["trace", "--export", "gantt"], width)

    @pytest.mark.parametrize("width", ["-1", "0"])
    def test_serve_gantt(self, capsys, width):
        self.refused(capsys, ["serve", "--gantt"], width)
