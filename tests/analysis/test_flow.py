"""Tests for the determinism-flow analysis (``python -m repro flow``)."""

import json
import subprocess
import textwrap
from pathlib import Path

import pytest

from repro.analysis.astcache import ast_cache
from repro.analysis.flow import analyze_paths, analyze_source
from repro.analysis.linter import changed_files, lint_paths
from repro.analysis.taint import ALL_FLOW_RULES, RULE_SUMMARIES
from repro.cli import main
from repro.errors import AnalysisError

FIXTURES = Path(__file__).resolve().parent.parent / "flow_fixtures"
REPRO_SRC = Path(__file__).resolve().parents[2] / "src" / "repro"


def flow_snippet(source, path="x/module.py"):
    report = analyze_source(textwrap.dedent(source), path)
    return report.findings


def rules_of(findings):
    return [f.rule_id for f in findings]


class TestSourcesAndSinks:
    def test_direct_wall_clock_to_report(self):
        findings = flow_snippet("""
            import time

            def dump(path):
                write_json_report(path, {"t": time.time()})
        """)
        assert rules_of(findings) == ["FLOW-WALL-CLOCK"]

    def test_sink_payload_index_is_respected(self):
        # The *path* argument of write_json_report is not the payload.
        findings = flow_snippet("""
            import time

            def dump(payload):
                write_json_report(f"report-{time.time()}.json", payload)
        """)
        assert findings == []

    def test_constructor_sink(self):
        findings = flow_snippet("""
            import random

            def build():
                return SimulatedRunResult(latency=random.random())
        """)
        assert rules_of(findings) == ["FLOW-GLOBAL-RNG"]

    def test_env_subscript_read(self):
        findings = flow_snippet("""
            import os

            def dump(path):
                write_json_report(path, {"home": os.environ["HOME"]})
        """)
        assert rules_of(findings) == ["FLOW-ENV-READ"]

    def test_monotonic_is_not_a_source(self):
        findings = flow_snippet("""
            import time

            def dump(path):
                write_json_report(path, {"m": time.monotonic()})
        """)
        assert findings == []


class TestPerFunction:
    def test_to_dict_return_is_a_sink(self):
        findings = flow_snippet("""
            import threading

            class Event:
                def to_dict(self):
                    return {"thread": threading.get_ident()}
        """)
        assert rules_of(findings) == ["FLOW-THREAD-ID"]

    def test_every_assignment_taints_the_name(self):
        # Flow-insensitive: a late assignment taints earlier reads.
        findings = flow_snippet("""
            import os

            def dump(path, stamp):
                for _ in range(2):
                    write_json_report(path, {"stamp": stamp})
                    stamp = os.getenv("STAMP")
        """)
        assert rules_of(findings) == ["FLOW-ENV-READ"]


class TestInterprocedural:
    """Nothing crosses a call: the golden corpus guards what travels
    further (tests/mutation/MATRIX.md)."""

    def test_clean_helper_stays_clean(self):
        findings = flow_snippet("""
            def helper(x):
                return {"x": x}

            def run(path):
                write_json_report(path, helper(3))
        """)
        assert findings == []


class TestLaundering:
    def test_sorted_clears_unordered(self):
        findings = flow_snippet("""
            def dump(path, names):
                pool = set(names)
                atomic_write_text(path, "\\n".join(sorted(pool)))
        """)
        assert findings == []

    def test_unordered_iteration_is_flagged_without_sorted(self):
        findings = flow_snippet("""
            def dump(path, names):
                lines = []
                for name in set(names):
                    lines.append(name)
                atomic_write_text(path, "\\n".join(lines))
        """)
        assert rules_of(findings) == ["FLOW-UNORDERED-ITER"]

    def test_seeded_rng_is_deterministic(self):
        findings = flow_snippet("""
            import numpy as np

            def dump(path, seed):
                rng = np.random.default_rng(seed)
                write_json_report(path, {"draw": rng.normal()})
        """)
        assert findings == []

    def test_unseeded_default_rng_is_a_source(self):
        findings = flow_snippet("""
            import numpy as np

            def dump(path):
                rng = np.random.default_rng()
                write_json_report(path, {"draw": rng.normal()})
        """)
        assert rules_of(findings) == ["FLOW-GLOBAL-RNG"]

    def test_order_insensitive_reductions_clear(self):
        findings = flow_snippet("""
            def dump(path, xs):
                pool = set(xs)
                write_json_report(path, {"n": len(pool),
                                         "lo": min(pool)})
        """)
        assert findings == []


class TestSuppressions:
    def test_justified_suppression_silences(self):
        report = analyze_source(textwrap.dedent("""
            import time

            def dump(path):
                # bt-flow: disable=FLOW-WALL-CLOCK -- build stamp wanted
                write_json_report(path, {"t": time.time()})
        """), "x/m.py")
        assert report.findings == []
        assert report.suppressed == 1

    def test_unjustified_suppression_keeps_finding_and_flags(self):
        report = analyze_source(textwrap.dedent("""
            import time

            def dump(path):
                # bt-flow: disable=FLOW-WALL-CLOCK
                write_json_report(path, {"t": time.time()})
        """), "x/m.py")
        assert sorted(rules_of(report.findings)) == [
            "BAD-SUPPRESSION", "FLOW-WALL-CLOCK",
        ]
        assert report.suppressed == 0

    def test_lint_suppression_does_not_cover_flow(self):
        report = analyze_source(textwrap.dedent("""
            import time

            def dump(path):
                # bt-lint: disable=WALL-CLOCK -- measured on purpose
                write_json_report(path, {"t": time.time()})
        """), "x/m.py")
        assert rules_of(report.findings) == ["FLOW-WALL-CLOCK"]


class TestFixtures:
    @pytest.fixture(scope="class")
    def report(self):
        return analyze_paths([FIXTURES])

    def test_every_seeded_violation_detected(self, report):
        by_file = {}
        for finding in report.findings:
            name = Path(finding.path).name
            by_file.setdefault(name, []).append(finding.rule_id)
        assert sorted(by_file["bad_attribution.py"]) == [
            "FLOW-WALL-CLOCK",
        ]
        assert sorted(by_file["bad_container.py"]) == [
            "FLOW-THREAD-ID", "FLOW-UNORDERED-ITER",
        ]
        assert sorted(by_file["bad_to_dict.py"]) == [
            "FLOW-ENV-READ", "FLOW-WALL-CLOCK",
        ]
        assert sorted(by_file["bad_traffic.py"]) == [
            "FLOW-GLOBAL-RNG",
        ]
        assert sorted(by_file["suppressed.py"]) == [
            "BAD-SUPPRESSION", "FLOW-WALL-CLOCK",
        ]

    def test_good_file_is_clean(self, report):
        assert not any(
            Path(f.path).name == "good_laundering.py"
            for f in report.findings
        )

    def test_justified_suppression_counted(self, report):
        assert report.suppressed == 1

    def test_report_shape(self, report):
        data = report.to_dict()
        assert data["tool"] == "repro-flow"
        assert data["files_checked"] == 6
        assert not data["clean"]
        assert sum(data["counts"].values()) == len(report.findings)


class TestBaseline:
    def test_repro_package_is_flow_clean(self):
        report = analyze_paths([REPRO_SRC])
        assert report.clean, [f.format() for f in report.findings]


class TestSharedCache:
    def test_lint_and_flow_share_parses(self):
        cache = ast_cache()
        cache.clear()
        lint_paths([FIXTURES])
        misses_after_lint = cache.misses
        analyze_paths([FIXTURES])
        # Flow re-used every parse the linter produced.
        assert cache.misses == misses_after_lint
        assert cache.hits >= misses_after_lint


class TestCli:
    def test_strict_exit_one_on_findings(self, capsys):
        assert main(["flow", str(FIXTURES), "--strict"]) == 1
        out = capsys.readouterr().out
        assert "repro-flow:" in out

    def test_non_strict_exit_zero(self, capsys):
        assert main(["flow", str(FIXTURES)]) == 0

    def test_missing_target_is_tool_failure(self, capsys):
        assert main(["flow", "/no/such/flow/target"]) == 2
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "AnalysisError"

    def test_json_format_counts(self, capsys):
        assert main(["flow", str(FIXTURES), "--format", "json"]) == 0
        data = json.loads(capsys.readouterr().out)
        assert data["tool"] == "repro-flow"
        assert data["counts"]["FLOW-WALL-CLOCK"] == 3
        assert {r["rule"] for r in data["rules"]} == set(ALL_FLOW_RULES)

    def test_list_rules(self, capsys):
        assert main(["flow", "--list-rules"]) == 0
        out = capsys.readouterr().out
        for rule_id in ALL_FLOW_RULES:
            assert rule_id in out
            assert RULE_SUMMARIES[rule_id] in out

    def test_out_writes_report(self, tmp_path, capsys):
        out_file = tmp_path / "flow.json"
        assert main(["flow", str(FIXTURES / "bad_to_dict.py"),
                     "--out", str(out_file)]) == 0
        capsys.readouterr()
        data = json.loads(out_file.read_text())
        assert data["counts"] == {"FLOW-WALL-CLOCK": 1, "FLOW-ENV-READ": 1}


class TestChanged:
    @pytest.fixture()
    def git_repo(self, tmp_path, monkeypatch):
        def git(*argv):
            subprocess.run(
                ["git", *argv], cwd=tmp_path, check=True,
                capture_output=True,
                env={"GIT_AUTHOR_NAME": "t", "GIT_AUTHOR_EMAIL": "t@t",
                     "GIT_COMMITTER_NAME": "t",
                     "GIT_COMMITTER_EMAIL": "t@t",
                     "HOME": str(tmp_path), "PATH": "/usr/bin:/bin"},
            )

        git("init", "-q")
        clean = tmp_path / "clean.py"
        clean.write_text("import time\n\n"
                         "def dump(path):\n"
                         "    write_json_report(path, {'t': time.time()})\n")
        git("add", "clean.py")
        git("commit", "-qm", "seed")
        monkeypatch.chdir(tmp_path)
        return tmp_path

    def test_changed_picks_up_new_and_modified_files(self, git_repo):
        (git_repo / "fresh.py").write_text(
            "import random\n\n"
            "def dump(path):\n"
            "    write_json_report(path, {'r': random.random()})\n"
        )
        files = changed_files(base="HEAD")
        assert [p.name for p in files] == ["fresh.py"]

    def test_cli_changed_analyzes_only_the_diff(self, git_repo, capsys):
        # The committed file has a violation, but it is unchanged:
        # --changed must not look at it.
        assert main(["flow", "--changed", "--strict"]) == 0
        (git_repo / "fresh.py").write_text(
            "import random\n\n"
            "def dump(path):\n"
            "    write_json_report(path, {'r': random.random()})\n"
        )
        assert main(["flow", "--changed", "--strict"]) == 1
        out = capsys.readouterr().out
        assert "fresh.py" in out
        assert "clean.py" not in out

    def test_changed_outside_git_is_structured_error(self, tmp_path,
                                                     monkeypatch):
        monkeypatch.chdir(tmp_path)
        with pytest.raises(AnalysisError):
            changed_files(base="HEAD")
