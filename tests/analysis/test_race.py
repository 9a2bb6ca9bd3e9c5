"""Tests for the race-checker scenario runner and its CLI."""

import json

from repro.analysis import race
from repro.runtime import checks as runtime_checks
from repro.runtime.checks import (
    BUFFER_ALIAS,
    LOCK_ORDER,
    SPSC_PRODUCER,
    USE_AFTER_RELEASE,
)
from repro.cli import main
from repro.stage import Chunk
from repro.runtime import ThreadedPipelineExecutor


class TestScenarios:
    def test_clean_pipeline_run_reports_nothing(self):
        log, summary = race.run_clean_phase(tasks=4, stages=4)
        assert len(log) == 0
        assert summary["completed"] == 4

    def test_selftest_detects_every_seeded_kind(self):
        log, missing = race.run_selftest_phase()
        assert missing == []
        for kind in (SPSC_PRODUCER, USE_AFTER_RELEASE, BUFFER_ALIAS,
                     LOCK_ORDER):
            assert log.counts[kind] >= 1

    def test_selftest_is_repeatable_in_one_process(self):
        # Lock-cycle reports dedupe per lock pair; the seeder must use
        # fresh names so a second selftest still detects the inversion.
        _, first_missing = race.run_selftest_phase()
        _, second_missing = race.run_selftest_phase()
        assert first_missing == []
        assert second_missing == []

    def test_run_race_structured_report(self):
        data, exit_code = race.run_race(tasks=4, stages=4, selftest=True)
        assert exit_code == 0
        assert data["tool"] == "repro-race"
        assert data["verdict"] == "ok"
        assert data["phases"]["clean"]["total"] == 0
        assert data["selftest_ok"] is True
        json.dumps(data)  # must be serialisable as-is


class TestExecutorLifetime:
    def test_executor_releases_retired_tasks(self):
        application = race.build_check_app(4)
        seen = []
        result = ThreadedPipelineExecutor(
            application, [Chunk(0, 4, "big")],
        ).run(5, on_complete=lambda task, i: seen.append(task),
              validate=True)
        assert result.completed == 5
        retired = {id(task): task for task in seen}.values()
        assert all(task.released for task in retired)

    def test_release_happens_after_on_complete(self):
        application = race.build_check_app(2)
        with runtime_checks.collecting() as log:
            ThreadedPipelineExecutor(
                application, [Chunk(0, 2, "big")],
            ).run(3, on_complete=lambda task, i: task["trace"],
                  validate=True)
        # Reading buffers inside on_complete is legal: the executor
        # releases only after the completion callback ran.
        assert len(log) == 0


class TestCli:
    def test_race_cli_selftest_json(self, capsys):
        assert main(["race", "--tasks", "2", "--stages", "2",
                     "--selftest", "--format", "json"]) == 0
        data = json.loads(capsys.readouterr().out)
        assert data["verdict"] == "ok"
        assert set(data["phases"]) == {"clean", "selftest"}
        assert data["clean_run"]["completed"] == data["clean_run"]["tasks"]

    def test_race_cli_text_and_out(self, tmp_path, capsys):
        out_file = tmp_path / "race.json"
        assert main(["race", "--tasks", "2", "--stages", "2",
                     "--out", str(out_file)]) == 0
        text = capsys.readouterr().out
        assert "repro-race report:" in text
        data = json.loads(out_file.read_text())
        assert data["phases"]["clean"]["total"] == 0
