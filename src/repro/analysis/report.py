"""Rendering for the correctness-tooling reports (text and JSON).

Shared by ``python -m repro lint`` and ``python -m repro race`` so both
tools emit the same shape of structured report: a ``tool`` tag, result
counts, and a list of individual findings/violations that CI can
consume without scraping human-oriented output.
"""

from __future__ import annotations

from typing import Any, Dict, List

from repro.analysis.linter import LintReport
from repro.analysis.rules import all_rules
from repro.runtime.checks import ViolationLog


def render_lint_text(report: LintReport) -> str:
    """Human-readable lint report (one finding per line + summary)."""
    lines = [finding.format() for finding in report.findings]
    status = "clean" if report.clean else (
        f"{len(report.findings)} finding"
        f"{'s' if len(report.findings) != 1 else ''}"
    )
    lines.append(
        f"repro-lint: {status} "
        f"({report.files_checked} files checked, "
        f"{report.suppressed} suppressed)"
    )
    return "\n".join(lines)


def render_lint_json(report: LintReport) -> Dict[str, Any]:
    """Structured lint report, including the rule catalog."""
    data = report.to_dict()
    data["rules"] = [
        {"rule": rule_id, "summary": summary}
        for rule in all_rules() for rule_id, summary in rule.catalog()
    ]
    return data


def render_rule_catalog() -> str:
    """The rule catalog as text (``repro lint --list-rules``)."""
    lines = []
    for rule in all_rules():
        lines += [f"{rule_id}: {summary}"
                  for rule_id, summary in rule.catalog()]
        if rule.allowed_in:
            lines.append(f"    exempt: {', '.join(rule.allowed_in)}")
    return "\n".join(lines)


def render_race_json(phases: Dict[str, ViolationLog],
                     extra: Dict[str, Any]) -> Dict[str, Any]:
    """Structured race-checker report over named scenario phases."""
    return {
        "tool": "repro-race",
        "phases": {name: log.to_dict() for name, log in phases.items()},
        **extra,
    }


def render_race_text(data: Dict[str, Any]) -> str:
    """Human-readable form of a race-checker report."""
    lines: List[str] = ["repro-race report:"]
    for name, phase in data.get("phases", {}).items():
        total = phase.get("total", 0)
        lines.append(f"  {name}: {total} violation"
                     f"{'s' if total != 1 else ''}")
        for violation in phase.get("violations", []):
            lines.append(
                f"    [{violation['kind']}] {violation['where']} "
                f"({violation['thread']}): {violation['detail']}"
            )
    if "selftest_ok" in data:
        lines.append(
            "  selftest: all seeded violations detected"
            if data["selftest_ok"]
            else f"  selftest FAILED: missing "
                 f"{', '.join(data.get('selftest_missing', []))}"
        )
    lines.append("  verdict: " + data.get("verdict", "unknown"))
    return "\n".join(lines)
