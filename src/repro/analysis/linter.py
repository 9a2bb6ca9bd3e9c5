"""Static analyzer driver: file collection, suppression, reporting.

``python -m repro lint [paths...]`` parses every ``.py`` file under the
given paths (the installed ``repro`` package by default) once, runs
every registered rule over the AST - the per-statement invariant rules
of :mod:`repro.analysis.rules` and the per-function determinism-flow
check of :mod:`repro.analysis.flow` - filters findings through
suppression comments, and renders the result as text or JSON.
``--strict`` turns any surviving finding into a non-zero exit, which is
how CI gates the tree.

One suppression grammar covers every rule, on the offending line or
the line directly above it::

    # bt-lint: disable=RULE-ID[,RULE-ID...] -- justification

``ALL`` disables every rule on that line.  The justification is
required: a suppression without one suppresses nothing and is itself
reported (``BAD-SUPPRESSION``).  A suppression covers only the ids it
names, so ``WALL-CLOCK`` does not cover ``FLOW-WALL-CLOCK``.
"""

from __future__ import annotations

import ast
import re
import subprocess
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, FrozenSet, Iterable, List, Optional, Tuple

import repro.analysis.flow  # noqa: F401 - registers the FLOW-* rule
from repro.analysis.rules import Finding, all_rules
from repro.errors import AnalysisError

#: The suppression-comment tag.
TOOL_TAG = "bt-lint"

_SUPPRESSION = re.compile(
    rf"#\s*{TOOL_TAG}:\s*disable="
    r"([A-Za-z0-9_\-, ]+?)(?:\s*--\s*(.*\S))?\s*$"
)


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


def _suppressions(source: str) -> Dict[int, Tuple[FrozenSet[str], bool]]:
    """Line (1-based) -> (rule ids, justified) for each suppression."""
    if TOOL_TAG not in source:  # C-level gate; almost every file is clean
        return {}
    table: Dict[int, Tuple[FrozenSet[str], bool]] = {}
    for lineno, line in enumerate(source.splitlines(), start=1):
        match = _SUPPRESSION.search(line) if TOOL_TAG in line else None
        if match is not None:
            ids = frozenset(part.strip().upper()
                            for part in match.group(1).split(","))
            table[lineno] = (ids, match.group(2) is not None)
    return table


def _suppressed(finding: Finding,
                table: Dict[int, Tuple[FrozenSet[str], bool]]) -> bool:
    """Whether a justified suppression on the finding's line (or the
    line directly above it) names its rule."""
    for lineno in (finding.line, finding.line - 1):
        ids, justified = table.get(lineno, (frozenset(), False))
        if justified and ("ALL" in ids or finding.rule_id in ids):
            return True
    return False


def lint_source(
    source: str, path: str = "<string>",
) -> Tuple[List[Finding], int]:
    """Lint one module's source with every registered rule; returns
    (findings, suppressed_count).

    Raises:
        AnalysisError: The source does not parse.
    """
    try:
        tree = ast.parse(source, filename=path)
    except SyntaxError as exc:
        raise AnalysisError(f"cannot parse {path}: {exc}") from exc
    table = _suppressions(source)
    findings = [
        Finding(rule_id="BAD-SUPPRESSION", path=path, line=line, col=0,
                message=(f"{TOOL_TAG} suppression without a "
                         "justification; append ' -- <why this is safe>'"))
        for line, (_, justified) in table.items() if not justified
    ]
    suppressed = 0
    for rule in all_rules():
        if not rule.applies(path, source):
            continue
        for finding in rule.check(tree, path):
            if _suppressed(finding, table):
                suppressed += 1
            else:
                findings.append(finding)
    findings.sort(key=lambda f: (f.path, f.line, f.col, f.rule_id))
    return findings, suppressed


def collect_files(paths: Iterable[Path]) -> List[Path]:
    """Expand files/directories into the list of ``.py`` files, each
    directory's files sorted and every file once (a file named twice,
    or inside a directory also named, counts once).

    Raises:
        AnalysisError: A path does not exist.
    """
    files: Dict[Path, Path] = {}
    for path in paths:
        path = Path(path)
        if path.is_dir():
            found = [p for p in sorted(path.rglob("*.py"))
                     if "__pycache__" not in p.parts]
        elif path.is_file():
            found = [path]
        else:
            raise AnalysisError(
                f"analysis target {path} does not exist")
        for file_path in found:
            files.setdefault(file_path.resolve(), file_path)
    return list(files.values())


def lint_paths(paths: Iterable[Path]) -> LintReport:
    """Lint every ``.py`` file under ``paths``, parsing each once.

    Raises:
        AnalysisError: A path is missing, unreadable, or unparseable.
    """
    report = LintReport()
    for file_path in collect_files(paths):
        try:
            source = file_path.read_text(encoding="utf-8")
        except OSError as exc:
            raise AnalysisError(f"cannot read {file_path}: {exc}") from exc
        findings, suppressed = lint_source(source, str(file_path))
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

    The fast pre-commit path behind ``repro lint --changed``: committed, staged, unstaged *and*
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
