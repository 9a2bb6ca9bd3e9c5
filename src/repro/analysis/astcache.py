"""Shared parsed-AST cache for the static analyses.

``repro lint`` and ``repro flow`` both start from the same parsed
modules; parsing dominates a lint run, so running both tools naively
would pay it twice.  This module owns one process-wide cache of
:class:`ParsedModule` entries - source text, AST, and per-tool
suppression tables - validated against the file's (mtime, size) so
editors and test fixtures that rewrite files are picked up.

The cache also centralises suppression-comment parsing.  Both tools
use the same grammar::

    # bt-lint: disable=RULE-ID[,RULE-ID...]
    # bt-flow: disable=RULE-ID[,RULE-ID...] -- justification text

``ALL`` disables every rule on that line.  The optional ``--`` suffix
carries a human justification; ``repro flow`` *requires* it (an
unjustified ``bt-flow`` suppression is itself a finding), ``repro
lint`` ignores it.
"""

from __future__ import annotations

import ast
import re
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, Optional, Tuple

from repro.errors import AnalysisError


@dataclass(frozen=True)
class Suppression:
    """One suppression comment: the rule ids and their justification."""

    rule_ids: Tuple[str, ...]
    justification: Optional[str]

    def covers(self, rule_id: str) -> bool:
        return "ALL" in self.rule_ids or rule_id in self.rule_ids


@dataclass
class ParsedModule:
    """One parsed source file plus derived, memoised artifacts."""

    path: str
    source: str
    tree: ast.Module
    stat_key: Tuple[int, int]  # (mtime_ns, size) at parse time
    _suppressions: Dict[str, Dict[int, Suppression]] = field(
        default_factory=dict
    )

    def suppressions(self, tool: str) -> Dict[int, Suppression]:
        """Line (1-based) -> :class:`Suppression` for one tool tag."""
        table = self._suppressions.get(tool)
        if table is None:
            table = parse_suppressions(self.source, tool)
            self._suppressions[tool] = table
        return table


def _suppress_re(tool: str) -> re.Pattern:
    return re.compile(
        rf"#\s*{re.escape(tool)}:\s*disable="
        rf"([A-Za-z0-9_\-, ]+?)(?:\s*--\s*(.*\S))?\s*$"
    )


def parse_suppressions(source: str, tool: str) -> Dict[int, Suppression]:
    """Parse one tool's suppression comments out of a module source."""
    tag = tool + ":"
    if tag not in source:  # C-level gate; almost every file is clean
        return {}
    pattern = _suppress_re(tool)
    table: Dict[int, Suppression] = {}
    for lineno, line in enumerate(source.splitlines(), start=1):
        if tag not in line:
            continue
        match = pattern.search(line)
        if match is None:
            continue
        ids = tuple(sorted({
            part.strip().upper()
            for part in match.group(1).split(",") if part.strip()
        }))
        table[lineno] = Suppression(rule_ids=ids,
                                    justification=match.group(2))
    return table


def suppressed_at(rule_id: str, line: int,
                  table: Dict[int, Suppression]) -> Optional[Suppression]:
    """The suppression covering ``rule_id`` on ``line`` (or the line
    directly above it), if any."""
    for lineno in (line, line - 1):
        suppression = table.get(lineno)
        if suppression is not None and suppression.covers(rule_id):
            return suppression
    return None


class AstCache:
    """Process-wide (path -> :class:`ParsedModule`) cache.

    Entries are revalidated against the file's ``(mtime_ns, size)`` on
    every :meth:`get`, so stale trees are never served; ``hits`` /
    ``misses`` expose the sharing the analysis-performance benchmark
    asserts on.
    """

    def __init__(self) -> None:
        self._entries: Dict[str, ParsedModule] = {}
        self.hits = 0
        self.misses = 0

    def __len__(self) -> int:
        return len(self._entries)

    def clear(self) -> None:
        self._entries.clear()
        self.hits = 0
        self.misses = 0

    @staticmethod
    def _stat_key(path: Path) -> Tuple[int, int]:
        stat = path.stat()
        return (stat.st_mtime_ns, stat.st_size)

    def get(self, path: Path) -> ParsedModule:
        """The parsed module for ``path``, parsing at most once.

        Raises:
            AnalysisError: The file cannot be read or does not parse.
        """
        path = Path(path)
        key = str(path)
        try:
            stat_key = self._stat_key(path)
        except OSError as exc:
            raise AnalysisError(f"cannot read {path}: {exc}") from exc
        cached = self._entries.get(key)
        if cached is not None and cached.stat_key == stat_key:
            self.hits += 1
            return cached
        self.misses += 1
        try:
            source = path.read_text(encoding="utf-8")
        except OSError as exc:
            raise AnalysisError(f"cannot read {path}: {exc}") from exc
        module = parse_module(source, key, stat_key=stat_key)
        self._entries[key] = module
        return module


def parse_module(source: str, path: str,
                 stat_key: Tuple[int, int] = (0, 0)) -> ParsedModule:
    """Parse in-memory source into an (uncached) :class:`ParsedModule`.

    Raises:
        AnalysisError: The source does not parse.
    """
    try:
        tree = ast.parse(source, filename=path)
    except SyntaxError as exc:
        raise AnalysisError(f"cannot parse {path}: {exc}") from exc
    return ParsedModule(path=path, source=source, tree=tree,
                        stat_key=stat_key)


_GLOBAL_CACHE = AstCache()


def ast_cache() -> AstCache:
    """The process-global cache shared by ``lint`` and ``flow``."""
    return _GLOBAL_CACHE
