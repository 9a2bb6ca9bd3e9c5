"""Tests for durable campaigns: checkpoint, corruption repair, resume.

The acceptance property: a campaign killed at any unit boundary -
SIGKILL included - and resumed produces artifacts byte-identical to an
uninterrupted run's, re-executing only the incomplete units.
"""

import json
import os
import signal
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

import repro
from repro.apps import build_octree_application
from repro.core import BetterTogether, CampaignSession
from repro.errors import CampaignError
from repro.core.serialization import (
    CHECKSUM_KEY,
    artifact_sha256,
    read_artifact,
    write_artifact,
)
from repro.soc import get_platform

_SRC = str(Path(repro.__file__).resolve().parents[1])


@pytest.fixture
def framework():
    return BetterTogether(get_platform("jetson_orin_nano"),
                          repetitions=2, k=3, eval_tasks=4)


@pytest.fixture
def app():
    return build_octree_application()


def run_campaign(tmp_path, framework, app, name="session"):
    session = CampaignSession(tmp_path / name, framework)
    plan = session.run(app)
    return session, plan


def read_tree(directory):
    """{relative path: bytes} for every file under a session directory.

    Campaign artifacts are fully deterministic (no wall-clock reading
    is serialized), so every file - checksums included - must match
    byte for byte across runs.
    """
    return {
        str(path.relative_to(directory)): path.read_bytes()
        for path in sorted(Path(directory).rglob("*.json"))
    }


class TestCheckpointing:
    def test_fresh_run_writes_every_unit(self, tmp_path, framework, app):
        session, plan = run_campaign(tmp_path, framework, app)
        n_cells = app.num_stages * len(framework.platform.pu_classes())
        assert session.report.cells_measured == n_cells
        assert session.report.cells_reused == 0
        assert session.report.measurements_run == 3
        tree = read_tree(session.directory)
        assert "manifest.json" in tree
        assert "optimization.json" in tree
        assert "schedule.json" in tree
        assert sum(1 for name in tree
                   if name.startswith("profiling/")) == n_cells

    def test_second_run_reuses_everything(self, tmp_path, framework, app):
        session, plan = run_campaign(tmp_path, framework, app)
        before = read_tree(session.directory)
        resumed = CampaignSession(session.directory, framework)
        replan = resumed.run(app)
        assert resumed.report.cells_measured == 0
        assert resumed.report.measurements_run == 0
        assert resumed.report.optimization_reused
        assert replan.schedule.assignments == plan.schedule.assignments
        assert read_tree(session.directory) == before

    def test_checkpointed_plan_matches_plain_run(self, tmp_path,
                                                 framework, app):
        _, plan = run_campaign(tmp_path, framework, app)
        plain = framework.run(app)
        assert plan.schedule.assignments == plain.schedule.assignments
        assert (plan.autotune.measured_best.measured_latency_s
                == plain.autotune.measured_best.measured_latency_s)

    def test_fresh_session_emits_the_plain_run_s_events(self, tmp_path,
                                                        framework, app):
        """A session is ``BetterTogether.run`` with checkpoints plugged
        in, not a second copy of it: a fresh one profiles in one pass
        and autotunes in one round, so it leaves the spans and metrics
        of a plain run behind, event for event."""
        from repro.obs import capture

        with capture() as session:
            run_campaign(tmp_path, framework, app)
        with capture() as plain:
            framework.run(app)
        assert session.tracer.events == plain.tracer.events
        assert session.metrics.snapshot() == plain.metrics.snapshot()
        rounds = [e for e in session.tracer.events
                  if e.name == "autotuner.round"]
        assert [e.attr("candidates") for e in rounds] == [3]

    def test_killed_mid_round_resumes_to_the_same_tree(self, tmp_path,
                                                       framework, app):
        """The autotune round is the unit of resume: whatever the round
        wrote before the kill is reused, the rest is measured again, and
        the tree is the uninterrupted one."""
        class Killed(Exception):
            pass

        def kill_after_first_measurement(unit):
            if unit == "autotune:0":
                raise Killed(unit)

        session = CampaignSession(tmp_path / "killed", framework)
        with pytest.raises(Killed):
            session.run(app, on_unit=kill_after_first_measurement)
        resumed = CampaignSession(session.directory, framework)
        resumed.run(app)
        assert resumed.report.measurements_reused == 1
        assert resumed.report.measurements_run == 2
        reference, _ = run_campaign(tmp_path, framework, app)
        assert read_tree(session.directory) == read_tree(
            reference.directory)

    def test_manifest_with_a_time_budget_key_resumes(self, tmp_path,
                                                     framework, app):
        """Sessions started when the optimizer search had a time budget
        carry ``"time_budget_s": null`` in their manifest.  Such a
        session still resumes - after damage, too - to the bytes of a
        fresh one, and its manifest is left as it was."""
        session, _ = run_campaign(tmp_path, framework, app)
        before = read_tree(session.directory)
        manifest = session.directory / "manifest.json"
        old = read_artifact(manifest, kind="session_manifest")
        write_artifact(manifest, "session_manifest", {
            key: value for key, value in old.items()
            if key not in ("kind", "version", CHECKSUM_KEY)
        } | {"time_budget_s": None})
        legacy = manifest.read_bytes()
        (session.directory / "optimization.json").unlink()
        (session.directory / "autotune" / "cand_002.json").unlink()
        sorted((session.directory / "profiling").rglob("*.json"))[3].unlink()
        resumed = CampaignSession(session.directory, framework)
        resumed.run(app)
        assert resumed.report.corrupt_units == []
        assert not resumed.report.optimization_reused
        assert manifest.read_bytes() == legacy
        after = read_tree(session.directory)
        assert after.pop("manifest.json") != before.pop("manifest.json")
        assert after == before

    def test_parameter_mismatch_rejected(self, tmp_path, framework, app):
        session, _ = run_campaign(tmp_path, framework, app)
        other = BetterTogether(framework.platform, repetitions=5, k=3,
                               eval_tasks=4)
        with pytest.raises(CampaignError, match="repetitions"):
            CampaignSession(session.directory, other).run(app)


class TestCorruptionRepair:
    """A damaged checkpoint is re-run, never trusted and never fatal."""

    def corrupt_one(self, session, mutate):
        cells = sorted((session.directory / "profiling").rglob("*.json"))
        mutate(cells[0])
        return cells[0]

    def test_truncated_cell_is_remeasured(self, tmp_path, framework, app):
        session, plan = run_campaign(tmp_path, framework, app)
        victim = self.corrupt_one(
            session, lambda p: p.write_text(p.read_text()[:40])
        )
        resumed = CampaignSession(session.directory, framework)
        replan = resumed.run(app)
        assert resumed.report.cells_measured == 1
        assert len(resumed.report.corrupt_units) == 1
        assert replan.schedule.assignments == plan.schedule.assignments
        json.loads(victim.read_text())  # repaired in place

    def test_flipped_checksum_is_detected(self, tmp_path, framework, app):
        session, _ = run_campaign(tmp_path, framework, app)

        def flip(path):
            data = json.loads(path.read_text())
            digest = data[CHECKSUM_KEY]
            data[CHECKSUM_KEY] = ("0" if digest[0] != "0" else "1") + digest[1:]
            path.write_text(json.dumps(data))

        self.corrupt_one(session, flip)
        resumed = CampaignSession(session.directory, framework)
        resumed.run(app)
        assert resumed.report.cells_measured == 1
        assert "checksum mismatch" in resumed.report.corrupt_units[0]

    def test_tampered_payload_fails_checksum(self, tmp_path, framework,
                                             app):
        session, _ = run_campaign(tmp_path, framework, app)

        def tamper(path):
            data = json.loads(path.read_text())
            data["mean_s"] = 123.456  # forged measurement
            path.write_text(json.dumps(data))

        self.corrupt_one(session, tamper)
        resumed = CampaignSession(session.directory, framework)
        resumed.run(app)
        assert resumed.report.cells_measured == 1

    @pytest.mark.parametrize("forged", [-1.0, "nan"])
    def test_stripped_checksum_is_damage(self, tmp_path, framework, app,
                                         forged):
        session, _ = run_campaign(tmp_path, framework, app)
        before = read_tree(session.directory)

        def strip(path):
            data = json.loads(path.read_text())
            del data[CHECKSUM_KEY]
            data["mean_s"] = forged
            path.write_text(json.dumps(data, indent=2))

        self.corrupt_one(session, strip)
        resumed = CampaignSession(session.directory, framework)
        resumed.run(app)
        assert resumed.report.cells_measured == 1
        assert "no checksum" in resumed.report.corrupt_units[0]
        assert read_tree(session.directory) == before

    @pytest.mark.parametrize("forged", [-1.0, float("nan"), float("inf"),
                                        "0.001", True, None])
    @pytest.mark.parametrize("unit", ["cell", "measurement"])
    def test_checksummed_nonsense_is_damage(self, tmp_path, framework, app,
                                            forged, unit):
        """A value no timer can read is damage even under a valid
        checksum: the unit is re-measured, the tree ends complete."""
        session, _ = run_campaign(tmp_path, framework, app)
        before = read_tree(session.directory)
        if unit == "cell":
            victim = sorted((session.directory / "profiling").rglob(
                "*.json"))[0]
            key = "mean_s"
        else:
            victim = session.directory / "autotune" / "cand_001.json"
            key = "measured_latency_s"
        data = json.loads(victim.read_text())
        data[key] = forged
        data[CHECKSUM_KEY] = artifact_sha256(data)
        victim.write_text(json.dumps(data, indent=2))
        resumed = CampaignSession(session.directory, framework)
        resumed.run(app)
        assert len(resumed.report.corrupt_units) == 1
        assert "not a duration" in resumed.report.corrupt_units[0]
        assert (resumed.report.cells_measured
                + resumed.report.measurements_run) == 1
        assert read_tree(session.directory) == before

    def test_missing_files_are_recollected(self, tmp_path, framework,
                                           app):
        session, plan = run_campaign(tmp_path, framework, app)
        before = read_tree(session.directory)
        cells = sorted((session.directory / "profiling").rglob("*.json"))
        cells[0].unlink()
        cells[-1].unlink()
        (session.directory / "optimization.json").unlink()
        (session.directory / "autotune" / "cand_001.json").unlink()
        resumed = CampaignSession(session.directory, framework)
        resumed.run(app)
        assert resumed.report.cells_measured == 2
        assert not resumed.report.optimization_reused
        assert resumed.report.measurements_run == 1
        assert resumed.report.measurements_reused == 2
        # Determinism: the recollected units reproduce the originals.
        assert read_tree(session.directory) == before

    def test_corrupt_manifest_is_rewritten(self, tmp_path, framework,
                                           app):
        session, _ = run_campaign(tmp_path, framework, app)
        (session.directory / "manifest.json").write_text("{not json")
        resumed = CampaignSession(session.directory, framework)
        resumed.run(app)
        assert any("manifest" in unit
                   for unit in resumed.report.corrupt_units)
        assert resumed.report.cells_measured == 0  # cells still trusted


class TestCrashResume:
    """SIGKILL mid-campaign; resume must finish from the last unit."""

    KILL_AFTER = 9  # units: mid-way through the 14 profiling cells

    def crash_script(self, directory):
        return textwrap.dedent(f"""
            import os, signal
            from repro.apps import build_octree_application
            from repro.core import BetterTogether, CampaignSession
            from repro.soc import get_platform

            fw = BetterTogether(get_platform("jetson_orin_nano"),
                                repetitions=2, k=3, eval_tasks=4)
            session = CampaignSession({str(directory)!r}, fw)
            done = []

            def on_unit(unit):
                done.append(unit)
                if len(done) == {self.KILL_AFTER}:
                    os.kill(os.getpid(), signal.SIGKILL)

            session.run(build_octree_application(), on_unit=on_unit)
        """)

    def test_sigkill_then_resume_is_byte_identical(self, tmp_path,
                                                   framework, app):
        interrupted = tmp_path / "interrupted"
        env = dict(os.environ, PYTHONPATH=_SRC)
        proc = subprocess.run(
            [sys.executable, "-c", self.crash_script(interrupted)],
            env=env, capture_output=True, timeout=120,
        )
        assert proc.returncode == -signal.SIGKILL
        partial = read_tree(interrupted)
        assert 0 < len(partial) - 1 <= self.KILL_AFTER  # +manifest
        assert "schedule.json" not in partial

        resumed = CampaignSession(interrupted, framework)
        plan = resumed.run(app)
        # Only the units the crash lost were re-executed.
        assert resumed.report.cells_reused == self.KILL_AFTER
        assert resumed.report.cells_measured == 14 - self.KILL_AFTER

        # The final artifacts are byte-identical to an uninterrupted
        # campaign's.
        _, reference_plan = run_campaign(tmp_path, framework, app,
                                         name="uninterrupted")
        assert read_tree(interrupted) == read_tree(
            tmp_path / "uninterrupted"
        )
        assert (plan.schedule.assignments
                == reference_plan.schedule.assignments)
