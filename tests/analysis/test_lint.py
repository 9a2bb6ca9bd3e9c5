"""Tests for the static invariant linter (``python -m repro lint``)."""

import json
import textwrap
from pathlib import Path

import pytest

from repro.analysis.linter import (
    collect_files,
    default_lint_target,
    lint_paths,
    lint_source,
)
from repro.analysis.report import render_lint_json, render_lint_text
from repro.analysis.rules import all_rules, get_rule
from repro.analysis.taint import ALL_FLOW_RULES
from repro.cli import main
from repro.errors import AnalysisError

FIXTURES = Path(__file__).resolve().parent.parent / "lint_fixtures"

EXPECTED_RULE_IDS = {
    "BROAD-EXCEPT",
    "RAW-ARTIFACT-WRITE",
    "UNSUPERVISED-THREAD",
    "UNTAGGED-SPAN",
    "WALL-CLOCK",
}
#: What ``--list-rules`` and the JSON ``rules`` list name: the flow rule
#: lists every FLOW-* id and BAD-SUPPRESSION.
CATALOG_IDS = EXPECTED_RULE_IDS | set(ALL_FLOW_RULES)


def lint_snippet(source, path="x/module.py"):
    findings, suppressed = lint_source(textwrap.dedent(source), path)
    return findings, suppressed


class TestRegistry:
    def test_all_rules_registered(self):
        assert {rule.rule_id for rule in all_rules()} \
            == EXPECTED_RULE_IDS | {"FLOW"}

    def test_get_rule(self):
        assert get_rule("WALL-CLOCK").rule_id == "WALL-CLOCK"
        assert get_rule("NO-SUCH-RULE") is None


class TestFixtures:
    @pytest.mark.parametrize("fixture, rule_id, count", [
        ("bad_wall_clock.py", "WALL-CLOCK", 1),
        ("bad_artifact_write.py", "RAW-ARTIFACT-WRITE", 2),
        ("bad_broad_except.py", "BROAD-EXCEPT", 2),
        ("bad_thread.py", "UNSUPERVISED-THREAD", 1),
        ("bad_untagged_span.py", "UNTAGGED-SPAN", 2),
    ])
    def test_bad_fixture_caught(self, fixture, rule_id, count):
        report = lint_paths([FIXTURES / fixture])
        assert report.counts == {rule_id: count}

    def test_good_fixture_clean(self):
        report = lint_paths([FIXTURES / "good_profiler.py"])
        assert report.clean

    def test_suppression_comment_counted(self):
        report = lint_paths([FIXTURES / "suppressed_wall_clock.py"])
        assert report.clean
        assert report.suppressed == 1

    def test_directory_aggregates_every_rule(self):
        report = lint_paths([FIXTURES])
        assert set(report.counts) == EXPECTED_RULE_IDS


class TestSuppression:
    def test_suppress_on_line_above(self):
        findings, suppressed = lint_snippet("""
            import time

            def stamp():
                # bt-lint: disable=WALL-CLOCK -- a stamp, no deadline
                return time.time()
        """)
        assert not findings
        assert suppressed == 1

    def test_suppress_all(self):
        findings, _ = lint_snippet("""
            import time

            def stamp():
                return time.time()  # bt-lint: disable=ALL -- a stamp
        """)
        assert not findings

    def test_unrelated_suppression_does_not_hide(self):
        findings, suppressed = lint_snippet("""
            import time

            def stamp():
                return time.time()  # bt-lint: disable=BROAD-EXCEPT -- unrelated
        """)
        assert [f.rule_id for f in findings] == ["WALL-CLOCK"]
        assert suppressed == 0

    def test_unjustified_suppression_suppresses_nothing(self):
        findings, suppressed = lint_snippet("""
            import time

            def stamp():
                return time.time()  # bt-lint: disable=WALL-CLOCK
        """)
        assert [f.rule_id for f in findings] == [
            "BAD-SUPPRESSION", "WALL-CLOCK",
        ]
        assert "bt-lint" in findings[0].message
        assert suppressed == 0


class TestBroadExcept:
    def test_all_paths_raise_is_clean(self):
        findings, _ = lint_snippet("""
            def f(kernel):
                try:
                    kernel()
                except Exception as exc:
                    raise RuntimeError("wrapped") from exc
        """)
        assert not findings

    def test_route_then_fall_through_is_clean(self):
        findings, _ = lint_snippet("""
            def f(kernel, injector):
                try:
                    kernel()
                except Exception as exc:
                    injector.record(exc)
        """)
        assert not findings

    def test_bare_except_swallow_flagged(self):
        findings, _ = lint_snippet("""
            def f(kernel):
                try:
                    kernel()
                except:
                    pass
        """)
        assert [f.rule_id for f in findings] == ["BROAD-EXCEPT"]

    def test_retry_continue_with_routing_is_clean(self):
        # The dispatcher's retry shape: route unconditionally, then
        # continue the retry loop.
        findings, _ = lint_snippet("""
            def f(items, injector):
                for item in items:
                    while True:
                        try:
                            item()
                        except Exception as exc:
                            injector.record(exc)
                            continue
                        break
        """)
        assert not findings

    def test_retry_continue_without_routing_flagged(self):
        findings, _ = lint_snippet("""
            def f(items):
                for item in items:
                    while True:
                        try:
                            item()
                        except Exception:
                            continue
                        break
        """)
        assert [f.rule_id for f in findings] == ["BROAD-EXCEPT"]

    def test_conditionally_routed_branch_flagged(self):
        findings, _ = lint_snippet("""
            def f(kernel, injector):
                try:
                    kernel()
                except Exception as exc:
                    if injector is not None:
                        injector.record(exc)
        """)
        assert [f.rule_id for f in findings] == ["BROAD-EXCEPT"]

    def test_narrow_except_not_flagged(self):
        findings, _ = lint_snippet("""
            def f(kernel):
                try:
                    kernel()
                except ValueError:
                    pass
        """)
        assert not findings


class TestPathScoping:
    def test_serialization_exempt_from_raw_write(self):
        source = """
            import os

            def write(fd, text):
                with os.fdopen(fd, "w") as handle:
                    handle.write(text)
        """
        findings, _ = lint_snippet(source,
                                   path="repro/core/serialization.py")
        assert not findings
        findings, _ = lint_snippet(source, path="repro/other.py")
        assert [f.rule_id for f in findings] == ["RAW-ARTIFACT-WRITE"]

    def test_pipeline_exempt_from_thread_rule(self):
        source = """
            import threading

            class Worker(threading.Thread):
                pass
        """
        findings, _ = lint_snippet(source,
                                   path="repro/runtime/pipeline.py")
        assert not findings
        findings, _ = lint_snippet(source, path="repro/core/session.py")
        assert [f.rule_id for f in findings] == ["UNSUPERVISED-THREAD"]

    def test_span_factories_exempt_from_untagged_span(self):
        source = """
            def build(Span):
                return Span(chunk_index=0, pu_class="big", task_id=0,
                            start_s=0.0, end_s=1.0)
        """
        for exempt in ("repro/obs/spans.py",
                       "repro/obs/export.py",
                       "repro/obs/tracer.py"):
            findings, _ = lint_snippet(source, path=exempt)
            assert not findings, exempt
        findings, _ = lint_snippet(source,
                                   path="repro/runtime/simulator.py")
        assert [f.rule_id for f in findings] == ["UNTAGGED-SPAN"]

    def test_untagged_span_suppressible(self):
        findings, suppressed = lint_snippet("""
            def build(Span):
                # bt-lint: disable=UNTAGGED-SPAN -- a test double
                return Span(0, "big", 0, 0.0, 1.0)
        """)
        assert not findings
        assert suppressed == 1

    def test_read_mode_open_is_fine(self):
        findings, _ = lint_snippet("""
            def load(path):
                with open(path) as handle:
                    return handle.read()
        """)
        assert not findings


class TestDriver:
    def test_syntax_error_raises_analysis_error(self):
        with pytest.raises(AnalysisError):
            lint_source("def broken(:", "bad.py")

    def test_missing_path_raises(self):
        with pytest.raises(AnalysisError):
            collect_files([Path("/no/such/lint/target")])

    def test_overlapping_targets_count_each_file_once(self):
        alone = lint_paths([FIXTURES])
        both = lint_paths([FIXTURES, FIXTURES / "bad_wall_clock.py"])
        assert both.to_dict() == alone.to_dict()
        assert len(both.findings) == 8

    def test_repo_baseline_is_clean(self):
        # The acceptance bar: the shipped package has zero findings.
        report = lint_paths([default_lint_target()])
        assert report.clean, render_lint_text(report)
        assert report.files_checked > 30

    def test_json_report_shape(self):
        report = lint_paths([FIXTURES / "bad_wall_clock.py"])
        data = render_lint_json(report)
        assert data["tool"] == "repro-lint"
        assert data["counts"] == {"WALL-CLOCK": 1}
        assert {entry["rule"] for entry in data["rules"]} == CATALOG_IDS
        json.dumps(data)  # must be serialisable as-is


class TestCli:
    def test_lint_strict_clean_on_repo(self):
        assert main(["lint", "--strict"]) == 0

    def test_lint_strict_fails_on_fixtures(self, capsys):
        assert main(["lint", str(FIXTURES), "--strict",
                     "--format", "json"]) == 1
        data = json.loads(capsys.readouterr().out)
        assert set(data["counts"]) == EXPECTED_RULE_IDS

    def test_lint_non_strict_exits_zero(self):
        assert main(["lint", str(FIXTURES)]) == 0

    def test_list_rules(self, capsys):
        assert main(["lint", "--list-rules"]) == 0
        out = capsys.readouterr().out
        for rule_id in CATALOG_IDS:
            assert rule_id in out

    def test_lint_out_writes_report(self, tmp_path, capsys):
        out_file = tmp_path / "lint.json"
        assert main(["lint", str(FIXTURES / "bad_thread.py"),
                     "--out", str(out_file)]) == 0
        capsys.readouterr()
        data = json.loads(out_file.read_text())
        assert data["counts"] == {"UNSUPERVISED-THREAD": 1}

    def test_lint_missing_target_is_structured_error(self, capsys):
        # 2 = tool failure; 1 is reserved for findings under --strict.
        assert main(["lint", "/no/such/lint/target"]) == 2
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "AnalysisError"
