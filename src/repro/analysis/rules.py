"""Static invariant rules for ``python -m repro lint``.

Each rule machine-checks one convention the runtime's correctness
rests on (see the rule docstrings and the "Correctness tooling"
section of ``docs/architecture.md``):

* ``WALL-CLOCK`` - deadline/timeout arithmetic must use the monotonic
  clock, never ``time.time()``.
* ``RAW-ARTIFACT-WRITE`` - artifacts must go through the atomic,
  checksummed writers in :mod:`repro.core.serialization`.
* ``BROAD-EXCEPT`` - a broad ``except`` may not swallow: every path
  through the handler must re-raise or route into the fault-report /
  quarantine machinery.
* ``UNSUPERVISED-THREAD`` - threads are created only by the pipeline
  executor, which owns and joins them, never ad hoc.
* ``UNTAGGED-SPAN`` - trace spans are built only inside
  :mod:`repro.obs` (:func:`repro.obs.spans.record_span` and the
  exporters), so every span carries consistent tags.

The per-function determinism-flow check (:mod:`repro.analysis.flow`,
the ``FLOW-*`` ids) registers here too.  Violations are suppressed per
line with ``# bt-lint: disable=RULE-ID -- justification`` (see
:mod:`repro.analysis.linter`).
"""

from __future__ import annotations

import ast
from dataclasses import dataclass
from typing import Any, Dict, Iterator, List, Optional, Sequence, Tuple

#: Registry of rule id -> rule instance, filled by :func:`register`.
_REGISTRY: Dict[str, "Rule"] = {}


@dataclass(frozen=True)
class Finding:
    """One rule violation at a source location."""

    rule_id: str
    path: str
    line: int
    col: int
    message: str

    def to_dict(self) -> Dict[str, Any]:
        """JSON-serialisable form of the finding."""
        return {
            "rule": self.rule_id, "path": self.path,
            "line": self.line, "col": self.col, "message": self.message,
        }

    def format(self) -> str:
        """``path:line:col: RULE-ID message`` (clickable in editors)."""
        return (f"{self.path}:{self.line}:{self.col}: "
                f"{self.rule_id} {self.message}")


class Rule:
    """Base class: one invariant, one id, one AST check.

    Attributes:
        rule_id: Stable identifier used in reports and suppressions.
        summary: One-line description for the rule catalog.
        allowed_in: Path suffixes exempt from the rule (the module that
            legitimately owns the flagged construct).
    """

    rule_id: str = ""
    summary: str = ""
    allowed_in: Tuple[str, ...] = ()

    def applies(self, path: str, source: str) -> bool:
        """Whether this rule runs on the given file (its path and
        source text) at all."""
        normalized = path.replace("\\", "/")
        return not any(normalized.endswith(suffix)
                       for suffix in self.allowed_in)

    def check(self, tree: ast.AST, path: str) -> Iterator[Finding]:
        """Yield findings for one parsed module."""
        raise NotImplementedError

    def catalog(self) -> Tuple[Tuple[str, str], ...]:
        """(rule id, summary) for every id this rule reports."""
        return ((self.rule_id, self.summary),)

    def finding(self, path: str, node: ast.AST, message: str) -> Finding:
        return Finding(
            rule_id=self.rule_id, path=path,
            line=getattr(node, "lineno", 1),
            col=getattr(node, "col_offset", 0),
            message=message,
        )


def register(cls):
    """Class decorator: add one instance of the rule to the registry."""
    rule = cls()
    _REGISTRY[rule.rule_id] = rule
    return cls


def all_rules() -> Tuple[Rule, ...]:
    """Every registered rule, in id order."""
    return tuple(_REGISTRY[key] for key in sorted(_REGISTRY))


def get_rule(rule_id: str) -> Optional[Rule]:
    """Look up one rule by id."""
    return _REGISTRY.get(rule_id)


# ----------------------------------------------------------------------
# AST helpers
# ----------------------------------------------------------------------
def dotted_name(node: ast.AST) -> str:
    """``a.b.c`` for Name/Attribute chains, ``""`` otherwise.

    Memoized on the node itself (purely syntactic, so safe to cache
    for the node's lifetime): every rule reads the same parsed tree,
    and the flow check re-reads the same calls on every settling pass.
    """
    cached = getattr(node, "_bt_dotted", None)
    if cached is not None:
        return cached
    root = node
    parts: List[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    name = ""
    if isinstance(node, ast.Name):
        parts.append(node.id)
        name = ".".join(reversed(parts))
    try:
        root._bt_dotted = name  # type: ignore[attr-defined]
    except AttributeError:  # pragma: no cover - slotted nodes
        pass
    return name


def _terminal_name(node: ast.AST) -> str:
    """The final attribute/name of a call target (``c`` for ``a.b.c``)."""
    if isinstance(node, ast.Attribute):
        return node.attr
    if isinstance(node, ast.Name):
        return node.id
    return ""


# ----------------------------------------------------------------------
# WALL-CLOCK
# ----------------------------------------------------------------------
@register
class WallClockRule(Rule):
    """``time.time()`` is wall clock: NTP steps and suspend/resume move
    it arbitrarily, so any deadline or timeout computed from it can
    fire early, late, or never.  The SPSC queue timeouts are all
    monotonic; this rule keeps it that way."""

    rule_id = "WALL-CLOCK"
    summary = ("time.time() in runtime code - deadlines/timeouts must "
               "use time.monotonic()")

    def check(self, tree: ast.AST, path: str) -> Iterator[Finding]:
        for node in ast.walk(tree):
            if (isinstance(node, ast.Call)
                    and dotted_name(node.func) == "time.time"):
                yield self.finding(
                    path, node,
                    "wall-clock time.time() call; deadline/timeout "
                    "arithmetic must use time.monotonic()",
                )


# ----------------------------------------------------------------------
# RAW-ARTIFACT-WRITE
# ----------------------------------------------------------------------
_WRITE_MODE_CHARS = set("wax+")


def _mode_argument(node: ast.Call, position: int) -> Optional[ast.expr]:
    if len(node.args) > position:
        return node.args[position]
    for keyword in node.keywords:
        if keyword.arg == "mode":
            return keyword.value
    return None


def _is_write_mode(mode: Optional[ast.expr]) -> bool:
    if mode is None:
        return False  # default "r"
    if isinstance(mode, ast.Constant) and isinstance(mode.value, str):
        return bool(_WRITE_MODE_CHARS & set(mode.value))
    return False  # dynamic mode: cannot tell statically


@register
class RawArtifactWriteRule(Rule):
    """A raw ``open(..., "w")`` truncates in place: a crash mid-write
    leaves a corrupt artifact that the checkpoint/resume machinery
    would then trust.  All artifact writes go through the atomic
    (tmp + fsync + rename), checksummed writers in
    :mod:`repro.core.serialization` - the one module exempt here."""

    rule_id = "RAW-ARTIFACT-WRITE"
    summary = ("raw file write outside repro.core.serialization - use the "
               "atomic artifact writers")
    allowed_in = ("repro/core/serialization.py",)

    def check(self, tree: ast.AST, path: str) -> Iterator[Finding]:
        for node in ast.walk(tree):
            if not isinstance(node, ast.Call):
                continue
            name = dotted_name(node.func)
            if name in ("open", "io.open", "os.fdopen"):
                if _is_write_mode(_mode_argument(node, 1)):
                    yield self.finding(
                        path, node,
                        f"raw {name}(..., 'w') write; route artifacts "
                        "through repro.core.serialization's atomic writers",
                    )
            elif _terminal_name(node.func) in ("write_text",
                                               "write_bytes"):
                yield self.finding(
                    path, node,
                    "Path.write_text/write_bytes is not atomic; route "
                    "artifacts through repro.core.serialization",
                )


# ----------------------------------------------------------------------
# BROAD-EXCEPT
# ----------------------------------------------------------------------
#: A call whose terminal name contains one of these routes the failure
#: into the fault-report / quarantine machinery.
_ROUTING_MARKERS = ("quarantine", "record", "route", "report",
                    "classify")


def _is_routing_call(node: ast.Call) -> bool:
    terminal = _terminal_name(node.func).lower()
    return any(marker in terminal for marker in _ROUTING_MARKERS)


def _contains_routing(node: ast.AST) -> bool:
    return any(isinstance(sub, ast.Call) and _is_routing_call(sub)
               for sub in ast.walk(node))


def _scan_block(stmts: Sequence[ast.stmt], routed: bool,
                loop_depth: int) -> Tuple[bool, bool, bool]:
    """Path-check one statement list inside a broad handler.

    Returns ``(swallows, falls_through, routed_after)``: whether any
    execution path can leave the handler without re-raising or routing,
    whether control can reach the end of this block, and the weakest
    "already routed" state at that point.  Conservative on constructs
    it cannot model (loops, try) - they never *clear* the routed flag.
    """
    swallows = False
    for stmt in stmts:
        if isinstance(stmt, ast.Raise):
            return swallows, False, routed
        if isinstance(stmt, ast.Return):
            if stmt.value is not None and _contains_routing(stmt.value):
                routed = True
            return swallows or not routed, False, routed
        if isinstance(stmt, (ast.Continue, ast.Break)):
            if loop_depth == 0:
                # Leaves the handler (the loop is outside the try).
                return swallows or not routed, False, routed
            continue  # local to a loop inside the handler
        if isinstance(stmt, ast.If):
            s1, f1, r1 = _scan_block(stmt.body, routed, loop_depth)
            s2, f2, r2 = _scan_block(stmt.orelse, routed, loop_depth)
            swallows = swallows or s1 or s2
            if not (f1 or f2):
                return swallows, False, routed
            falling = [r for fell, r in ((f1, r1), (f2, r2)) if fell]
            routed = all(falling)
        elif isinstance(stmt, (ast.While, ast.For)):
            s1, _, _ = _scan_block(stmt.body, routed, loop_depth + 1)
            s2, _, _ = _scan_block(stmt.orelse, routed, loop_depth)
            swallows = swallows or s1 or s2
            if _contains_routing(stmt):
                routed = True
        elif isinstance(stmt, ast.Try):
            sb, fb, rb = _scan_block(stmt.body, routed, loop_depth)
            so, fo, ro = _scan_block(stmt.orelse, rb, loop_depth)
            swallows = swallows or sb or so
            falls, routed_states = fb and fo, []
            if fb and fo:
                routed_states.append(ro)
            for handler in stmt.handlers:
                sh, fh, rh = _scan_block(handler.body, routed,
                                         loop_depth)
                swallows = swallows or sh
                if fh:
                    falls = True
                    routed_states.append(rh)
            if stmt.finalbody:
                sf, ff, rf = _scan_block(
                    stmt.finalbody,
                    all(routed_states) if routed_states else routed,
                    loop_depth,
                )
                swallows = swallows or sf
                if not ff:
                    return swallows, False, rf
                routed = rf if falls else routed
            else:
                if not falls:
                    return swallows, False, routed
                routed = all(routed_states)
        elif isinstance(stmt, ast.With):
            s1, f1, r1 = _scan_block(stmt.body, routed, loop_depth)
            swallows = swallows or s1
            if not f1:
                return swallows, False, routed
            routed = r1
        else:
            if _contains_routing(stmt):
                routed = True
    return swallows, True, routed


def _handler_is_broad(handler: ast.ExceptHandler) -> bool:
    if handler.type is None:
        return True  # bare except
    targets = (handler.type.elts if isinstance(handler.type, ast.Tuple)
               else [handler.type])
    for target in targets:
        if dotted_name(target).split(".")[-1] == "Exception":
            return True
    return False


@register
class BroadExceptRule(Rule):
    """A broad ``except Exception`` that swallows turns a kernel crash
    into a silently wrong result.  Broad handlers are allowed only when
    *every* path through them re-raises or routes the failure into the
    fault-report/quarantine machinery (a call whose name mentions
    quarantine/record/route/report/classify)."""

    rule_id = "BROAD-EXCEPT"
    summary = ("broad except handler with a path that neither re-raises "
               "nor routes to the fault machinery")

    def check(self, tree: ast.AST, path: str) -> Iterator[Finding]:
        for node in ast.walk(tree):
            if not isinstance(node, ast.ExceptHandler):
                continue
            if not _handler_is_broad(node):
                continue
            swallows, falls, routed = _scan_block(node.body, False, 0)
            if swallows or (falls and not routed):
                yield self.finding(
                    path, node,
                    "broad except may swallow the exception: every "
                    "path must re-raise or route it into the fault-"
                    "report/quarantine machinery",
                )


# ----------------------------------------------------------------------
# UNSUPERVISED-THREAD
# ----------------------------------------------------------------------
@register
class UnsupervisedThreadRule(Rule):
    """Threads created outside the pipeline executor escape its
    shutdown: nothing closes their queues, joins them on unwind, or
    surfaces their errors.  New concurrency must go through the
    executor's dispatcher machinery."""

    rule_id = "UNSUPERVISED-THREAD"
    summary = ("threading.Thread created outside the pipeline executor "
               "(the executor owns and joins its threads)")
    allowed_in = ("repro/runtime/pipeline.py",)

    def check(self, tree: ast.AST, path: str) -> Iterator[Finding]:
        for node in ast.walk(tree):
            if (isinstance(node, ast.Call)
                    and dotted_name(node.func) in ("threading.Thread",
                                                   "Thread")):
                yield self.finding(
                    path, node,
                    "unsupervised threading.Thread(); dispatcher "
                    "threads run only under the pipeline executor, "
                    "which owns and joins its threads",
                )
            elif isinstance(node, ast.ClassDef):
                for base in node.bases:
                    if dotted_name(base) in ("threading.Thread",
                                             "Thread"):
                        yield self.finding(
                            path, node,
                            f"class {node.name} subclasses "
                            "threading.Thread outside the pipeline "
                            "executor",
                        )


# ----------------------------------------------------------------------
# UNTAGGED-SPAN
# ----------------------------------------------------------------------
@register
class UntaggedSpanRule(Rule):
    """A ``Span(...)`` built by hand can silently omit the tenant/PU
    tags the Gantt renderer, the Perfetto exporter, and the per-tenant
    sectioning all key on, producing charts and traces that drop or
    misattribute work.  Spans are built only through the sanctioned
    factories (``repro.obs.spans.record_span`` and the
    :mod:`repro.obs` exporters), which take every tag explicitly."""

    rule_id = "UNTAGGED-SPAN"
    summary = ("direct Span(...) construction outside the sanctioned "
               "repro.obs factories")

    def applies(self, path: str, source: str) -> bool:
        # allowed_in is suffix-matched, which cannot express "anything
        # under the observability package" - exempt the directory here.
        return "repro/obs/" not in path.replace("\\", "/")

    def check(self, tree: ast.AST, path: str) -> Iterator[Finding]:
        for node in ast.walk(tree):
            if (isinstance(node, ast.Call)
                    and _terminal_name(node.func) == "Span"):
                yield self.finding(
                    path, node,
                    "direct Span(...) construction; build spans via "
                    "repro.obs.spans.record_span so they carry "
                    "the tags the exporters key on",
                )
