"""Invariant-linter driver: file collection, suppression, reporting.

``python -m repro lint [paths...]`` parses every ``.py`` file under the
given paths (the installed ``repro`` package by default), runs each
registered rule from :mod:`repro.analysis.rules` over the AST, filters
findings through ``# bt-lint: disable=...`` suppression comments, and
renders the result as text or JSON.  ``--strict`` turns any surviving
finding into a non-zero exit, which is how CI gates the tree.
"""

from __future__ import annotations

import ast
import subprocess
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, Iterable, List, Optional, Tuple

from repro.analysis.astcache import (
    AstCache,
    ParsedModule,
    ast_cache,
    parse_module,
    suppressed_at,
)
from repro.analysis.rules import Finding, all_rules
from repro.errors import AnalysisError

#: The suppression-comment tag this tool honours
#: (``# bt-lint: disable=RULE-ID[,RULE-ID...]``; ``ALL`` disables every
#: rule on that line).
TOOL_TAG = "bt-lint"


@dataclass
class LintReport:
    """Outcome of one lint run over a set of files."""

    findings: List[Finding] = field(default_factory=list)
    files_checked: int = 0
    suppressed: int = 0

    @property
    def clean(self) -> bool:
        return not self.findings

    def to_dict(self) -> Dict:
        """JSON-serialisable form of the report."""
        return {
            "tool": "repro-lint",
            "files_checked": self.files_checked,
            "suppressed": self.suppressed,
            "clean": self.clean,
            "findings": [f.to_dict() for f in self.findings],
            "counts": self.counts,
        }

    @property
    def counts(self) -> Dict[str, int]:
        out: Dict[str, int] = {}
        for finding in self.findings:
            out[finding.rule_id] = out.get(finding.rule_id, 0) + 1
        return out


def lint_module(module: ParsedModule) -> Tuple[List[Finding], int]:
    """Lint one parsed module with every registered rule; returns
    (findings, suppressed_count)."""
    path = module.path
    suppressions = module.suppressions(TOOL_TAG)
    findings: List[Finding] = []
    suppressed = 0
    for rule in all_rules():
        if not rule.applies(path):
            continue
        for finding in rule.check(module.tree, path):
            if suppressed_at(finding.rule_id, finding.line, suppressions):
                suppressed += 1
            else:
                findings.append(finding)
    findings.sort(key=lambda f: (f.path, f.line, f.col, f.rule_id))
    return findings, suppressed


def lint_source(
    source: str, path: str = "<string>",
) -> Tuple[List[Finding], int]:
    """Lint one module's source; returns (findings, suppressed_count).

    Raises:
        AnalysisError: The source does not parse.
    """
    return lint_module(parse_module(source, path))


def collect_files(paths: Iterable[Path]) -> List[Path]:
    """Expand files/directories into the sorted list of ``.py`` files.

    Raises:
        AnalysisError: A path does not exist.
    """
    files: List[Path] = []
    for path in paths:
        path = Path(path)
        if path.is_dir():
            files.extend(
                p for p in sorted(path.rglob("*.py"))
                if "__pycache__" not in p.parts
            )
        elif path.is_file():
            files.append(path)
        else:
            raise AnalysisError(
                f"analysis target {path} does not exist")
    return files


def lint_paths(
    paths: Iterable[Path],
    cache: Optional[AstCache] = None,
) -> LintReport:
    """Lint every ``.py`` file under ``paths``.

    Parsing goes through the shared :class:`AstCache`, so a ``flow``
    run over the same tree (in either order) reuses every tree.
    """
    cache = cache if cache is not None else ast_cache()
    report = LintReport()
    for file_path in collect_files(paths):
        findings, suppressed = lint_module(cache.get(file_path))
        report.findings.extend(findings)
        report.suppressed += suppressed
        report.files_checked += 1
    return report


def default_lint_target() -> Path:
    """The installed ``repro`` package directory (the repo baseline)."""
    return Path(__file__).resolve().parent.parent


def changed_files(base: str = "HEAD",
                  repo_root: Optional[Path] = None) -> List[Path]:
    """``.py`` files changed vs ``base`` (``git diff`` + untracked).

    The fast pre-commit path behind ``repro lint --changed`` /
    ``repro flow --changed``: committed, staged, unstaged *and*
    untracked Python files differing from ``base`` are all included,
    as absolute paths.  Deleted files are excluded.

    Raises:
        AnalysisError: Not a git checkout, or ``base`` is unknown.
    """
    root = Path(repo_root) if repo_root is not None else Path.cwd()

    def run_git(*args: str) -> str:
        try:
            proc = subprocess.run(
                ["git", *args], cwd=str(root), capture_output=True,
                text=True,
            )
        except OSError as exc:
            raise AnalysisError(f"cannot run git: {exc}") from exc
        if proc.returncode != 0:
            raise AnalysisError(
                f"git {' '.join(args)} failed: "
                f"{proc.stderr.strip() or proc.stdout.strip()}"
            )
        return proc.stdout

    top = Path(run_git("rev-parse", "--show-toplevel").strip())
    names = run_git("diff", "--name-only", base).splitlines()
    names += run_git("ls-files", "--others",
                     "--exclude-standard").splitlines()
    files: List[Path] = []
    for name in sorted(set(names)):
        if not name.endswith(".py"):
            continue
        path = top / name
        if path.is_file():
            files.append(path)
    return files
