"""Interprocedural determinism-flow analysis (``repro flow``).

The per-statement linter (:mod:`repro.analysis.rules`) flags a
``time.time()`` call *at the call site*; it cannot see the value
laundered through three helpers into a serialized report.  This pass
can.  It runs in two phases over the project model from
:mod:`repro.analysis.callgraph`:

**Phase A - summaries.**  Every function is abstractly interpreted
with its parameters bound to symbolic markers (``@param:i``).  The
result is a :class:`Summary` per function: which taint kinds its
return value carries, which parameters flow to its return value,
which parameters reach a determinism sink inside it (transitively),
which parameters it mutates with tainted data, and which parameters it
stores into named object fields.  Field stores and CamelCase
constructor keywords feed a *name-keyed global field-taint table* -
the pragmatic answer to heap aliasing that makes a chain like
``perf_counter() -> Stats.wall_seconds -> result.wall_s
-> result_to_dict -> write_artifact`` trackable without a points-
to analysis.  Summaries and the field table iterate to a fixpoint.

**Phase B - reporting.**  Every function (and module body) is re-
interpreted with *empty* parameter taint; now any concrete taint
reaching a sink - directly, through a summary's ``param_sinks``, or
via the field table - is a finding.  Findings are filtered through
``# bt-flow: disable=RULE -- justification`` comments; a bt-flow
suppression *without* a justification suffix does not suppress and is
itself reported (``BAD-SUPPRESSION``).

Control dependence is deliberately out of scope: branching on
``os.environ`` (the ``REPRO_CHECK`` checker switch) taints nothing -
only data flow into report bytes counts.  Unresolved calls join their
argument taint into the result (taint is never laundered by code we
cannot see) but never add sink edges.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, FrozenSet, Iterable, List, Optional, Set, \
    Tuple, Union

from repro.analysis import taint as T
from repro.analysis.astcache import (
    AstCache,
    ParsedModule,
    Suppression,
    ast_cache,
    parse_module,
    suppressed_at,
)
from repro.analysis.callgraph import (
    ClassInfo,
    FunctionInfo,
    ModuleInfo,
    Project,
)
from repro.analysis.clocks import check_clocks
from repro.analysis.linter import collect_files
from repro.analysis.rules import Finding

#: Suppression-comment tag honoured by this tool.
TOOL_TAG = "bt-flow"

#: Fixpoint bound.  Summaries grow monotonically, so this only caps
#: pathological call-graph depth; real trees converge in 2-3 rounds.
_MAX_ROUNDS = 10

#: Method names that mutate their receiver with their arguments.
_MUTATORS = frozenset({
    "append", "add", "extend", "insert", "update", "setdefault",
    "push", "put", "appendleft", "add_event",
})


_COMPOUND_STMTS = (ast.If, ast.For, ast.AsyncFor, ast.While,
                   ast.With, ast.AsyncWith, ast.Try)


def _loop_carries(loop: ast.stmt) -> bool:
    """Whether a loop can carry taint between iterations.

    A second interpretation pass over a loop body only changes the
    result when some name is *read* at an earlier statement than a
    *write* to it - the write feeds the next iteration's read.  Bodies
    without that shape (the overwhelming majority) converge in one
    pass.  Field-carried flow needs no second pass here: the field
    table is global and monotone, and the worklist re-runs readers
    when it grows.  The verdict is static, so it is memoized on the
    loop node.
    """
    cached = getattr(loop, "_bt_carries", None)
    if cached is not None:
        return cached
    min_read: Dict[str, int] = {}
    max_write: Dict[str, int] = {}
    counter = 0

    def collect(expr: ast.AST, index: int) -> None:
        for node in ast.walk(expr):
            if node.__class__ is not ast.Name:
                continue
            if isinstance(node.ctx, ast.Load):
                if node.id not in min_read:
                    min_read[node.id] = index
            else:
                prev = max_write.get(node.id)
                if prev is None or prev < index:
                    max_write[node.id] = index

    def scan(stmts: Iterable[ast.stmt]) -> None:
        nonlocal counter
        for stmt in stmts:
            counter += 1
            index = counter
            if isinstance(stmt, _COMPOUND_STMTS):
                # Header expressions at this index, blocks in order.
                for _, value in ast.iter_fields(stmt):
                    if isinstance(value, (ast.expr, ast.withitem)):
                        collect(value, index)
                    elif (isinstance(value, list) and value
                          and not isinstance(value[0], ast.stmt)):
                        for item in value:
                            collect(item, index)
                for name in ("body", "orelse", "finalbody"):
                    sub = getattr(stmt, name, None)
                    if sub:
                        scan(sub)
                for handler in getattr(stmt, "handlers", ()):
                    scan(handler.body)
            else:
                collect(stmt, index)

    scan(loop.body)
    carries = any(
        reader_index < max_write.get(name, -1)
        for name, reader_index in min_read.items()
    )
    try:
        loop._bt_carries = carries  # type: ignore[attr-defined]
    except AttributeError:  # pragma: no cover - slotted nodes
        pass
    return carries


@dataclass
class Summary:
    """One function's interprocedural behaviour."""

    return_kinds: T.Taint = T.EMPTY
    return_params: FrozenSet[int] = frozenset()
    #: param index -> sink description it (transitively) reaches.
    param_sinks: Dict[int, str] = field(default_factory=dict)
    #: param index -> concrete kinds the function adds to that argument.
    mutates: Dict[int, T.Taint] = field(default_factory=dict)
    #: param index -> object field names it is stored into.
    param_fields: Dict[int, FrozenSet[str]] = field(default_factory=dict)


#: Shared read-only default for unresolved/unprocessed callees - the
#: call-site hot path must not allocate a Summary per call.
_NO_SUMMARY = Summary()


@dataclass
class FlowReport:
    """Outcome of one flow run over a set of files."""

    findings: List[Finding] = field(default_factory=list)
    files_checked: int = 0
    suppressed: int = 0

    @property
    def clean(self) -> bool:
        return not self.findings

    @property
    def counts(self) -> Dict[str, int]:
        out: Dict[str, int] = {}
        for finding in self.findings:
            out[finding.rule_id] = out.get(finding.rule_id, 0) + 1
        return out

    def to_dict(self) -> Dict:
        """JSON-serialisable form of the report."""
        return {
            "tool": "repro-flow",
            "files_checked": self.files_checked,
            "suppressed": self.suppressed,
            "clean": self.clean,
            "findings": [f.to_dict() for f in self.findings],
            "counts": self.counts,
        }


class _Analysis:
    """Shared state across both phases: project, summaries, fields."""

    def __init__(self, project: Project) -> None:
        self.project = project
        self.summaries: Dict[str, Summary] = {
            q: Summary() for q in project.functions
        }
        self.field_taint: Dict[str, Set[str]] = {}
        self._chains: Dict[str, Tuple[str, ...]] = {}
        #: callee qname -> caller qnames (from resolved call sites).
        self._callers: Dict[str, Set[str]] = {}
        #: field key -> qnames of functions that read it.
        self._field_readers: Dict[str, Set[str]] = {}
        #: field keys whose taint grew since last drained.
        self._changed_fields: Set[str] = set()
        #: qname -> whether the function's last summary run evaluated
        #: any call that could emit a finding (a sink call, or a call
        #: into a function whose params reach a sink).  Phase B skips
        #: functions where this is False - they cannot report.
        self._report_sites: Dict[str, bool] = {}
        #: qname -> annotation-derived var_types, resolved once; the
        #: interpreter re-instantiates per run and resolution walks
        #: import tables.
        self._annot_types: Dict[str, Dict[str, str]] = {}

    def add_field_taint(self, key: str, kinds: Set[str]) -> None:
        """Grow the field table, recording which keys changed so the
        worklist can re-run just their readers."""
        entry = self.field_taint.setdefault(key, set())
        if not kinds <= entry:
            entry.update(kinds)
            self._changed_fields.add(key)

    def class_chain(self, qname: str) -> Tuple[str, ...]:
        """A class qname plus its project base-class qnames."""
        cached = self._chains.get(qname)
        if cached is not None:
            return cached
        chain: List[str] = []
        queue = [qname]
        while queue:
            current = queue.pop(0)
            if current in chain:
                continue
            chain.append(current)
            ci = self.project.classes.get(current)
            if ci is None:
                continue
            module = self.project.modules.get(ci.module)
            if module is None:
                continue
            for base in ci.bases:
                base_ci = self.project.class_by_local_name(base, module)
                if base_ci is not None:
                    queue.append(base_ci.qname)
        result = tuple(chain)
        self._chains[qname] = result
        return result

    def run_summaries(self) -> None:
        """Round-based fixpoint over function summaries + field table.

        Round 0 runs every function once, recording call/field-read
        edges.  Later rounds re-run only functions whose dependencies
        (a callee summary, or a field key they read) actually grew -
        in callee-before-caller postorder, so one round flushes a
        whole call chain.  A dependent scheduled *later in the same
        round* sees the growth when it runs, so it is not re-marked.
        Taint sets grow monotonically, so this terminates; the round
        cap only bounds pathological dependency churn (cycles through
        the field table).
        """
        funcs = self.project.all_functions()
        by_qname = {fn.qname: fn for fn in funcs}
        dirty: Set[str] = set()
        #: Position of each function in the round currently running:
        #: dependents at a later position need no re-mark.
        position: Dict[str, int] = {}

        def process(fn: FunctionInfo, index: int) -> None:
            interp = _FunctionInterp(self, fn, symbolic=True)
            new = interp.run()
            # Last run wins: if a callee's param_sinks grow later, the
            # callee's Summary changes, which re-marks this caller, so
            # the final flag always reflects fixpoint summaries.
            self._report_sites[fn.qname] = interp.saw_report_site
            for callee in interp.called:
                self._callers.setdefault(callee, set()).add(fn.qname)
            for key in interp.fields_read:
                self._field_readers.setdefault(
                    key, set()).add(fn.qname)
            grown: Set[str] = set()
            if new != self.summaries[fn.qname]:
                self.summaries[fn.qname] = new
                grown |= self._callers.get(fn.qname, set())
            if self._changed_fields:
                for key in self._changed_fields:
                    grown |= self._field_readers.get(key, set())
                self._changed_fields.clear()
            for qname in grown:
                if position.get(qname, -1) <= index \
                        and qname in by_qname:
                    dirty.add(qname)

        # Calls overwhelmingly follow import direction, so running
        # round 0 in module-import postorder (imported modules first,
        # intra-module definition order preserved) makes most
        # summaries converge in a single pass - without walking a
        # single tree for call sites.
        mod_order = self._module_import_order()
        funcs = sorted(
            funcs, key=lambda f: mod_order.get(f.module, 0))
        position = {fn.qname: i for i, fn in enumerate(funcs)}
        for i, fn in enumerate(funcs):
            process(fn, i)

        order = self._postorder(by_qname)
        for _ in range(_MAX_ROUNDS):
            if not dirty:
                break
            batch = sorted(dirty, key=lambda q: (order.get(q, 0), q))
            dirty.clear()
            position = {q: i for i, q in enumerate(batch)}
            for i, qname in enumerate(batch):
                process(by_qname[qname], i)

    def _module_import_order(self) -> Dict[str, int]:
        """Modname -> postorder index over the import graph (an
        imported module sorts before its importers; cycles break at
        the back edge)."""
        modules = self.project.modules
        edges: Dict[str, List[str]] = {}
        for modname, info in modules.items():
            targets = []
            for target in info.imports.values():
                # Longest project-module prefix of the imported name:
                # "pkg.mod.symbol" -> "pkg.mod".
                name = target
                while name and name not in modules:
                    name = name.rpartition(".")[0]
                if name and name != modname:
                    targets.append(name)
            edges[modname] = targets
        order: Dict[str, int] = {}
        visiting: Set[str] = set()
        for root in modules:
            if root in order:
                continue
            stack: List[Tuple[str, int]] = [(root, 0)]
            while stack:
                modname, child = stack[-1]
                subs = edges.get(modname, ())
                if child == 0:
                    visiting.add(modname)
                advanced = False
                while child < len(subs):
                    nxt = subs[child]
                    child += 1
                    if nxt not in order and nxt not in visiting:
                        stack[-1] = (modname, child)
                        stack.append((nxt, 0))
                        advanced = True
                        break
                if advanced:
                    continue
                stack.pop()
                visiting.discard(modname)
                order[modname] = len(order)
        return order

    def _postorder(self, by_qname: Dict[str, FunctionInfo],
                   ) -> Dict[str, int]:
        """Callee-before-caller postorder index over the call edges
        discovered in round 0 (cycles break at the back edge)."""
        callees: Dict[str, List[str]] = {}
        for callee, callers in self._callers.items():
            for caller in callers:
                callees.setdefault(caller, []).append(callee)
        order: Dict[str, int] = {}
        visiting: Set[str] = set()
        for root in by_qname:
            if root in order:
                continue
            stack: List[Tuple[str, int]] = [(root, 0)]
            while stack:
                qname, child = stack[-1]
                subs = callees.get(qname, ())
                if child == 0:
                    visiting.add(qname)
                advanced = False
                while child < len(subs):
                    nxt = subs[child]
                    child += 1
                    if nxt not in order and nxt not in visiting \
                            and nxt in by_qname:
                        stack[-1] = (qname, child)
                        stack.append((nxt, 0))
                        advanced = True
                        break
                if advanced:
                    continue
                stack.pop()
                visiting.discard(qname)
                order[qname] = len(order)
        return order

    def report_module(self, parsed: ParsedModule) -> List[Finding]:
        """Phase B over one module: functions + top-level code."""
        module = self.project.modules.get(
            _modname_of(self.project, parsed.path))
        findings: List[Finding] = []
        for fn in self.project.functions_in(parsed.path):
            if not self._report_sites.get(fn.qname, True):
                continue  # no sink-reaching call sites: cannot report
            interp = _FunctionInterp(self, fn, symbolic=False)
            interp.run()
            findings.extend(interp.findings)
        if module is not None:
            interp = _FunctionInterp(self, None, symbolic=False,
                                     module=module)
            top_level = [s for s in parsed.tree.body
                         if not isinstance(s, (ast.FunctionDef,
                                               ast.AsyncFunctionDef,
                                               ast.ClassDef))]
            interp.exec_block(top_level)
            findings.extend(interp.findings)
        return findings


def _modname_of(project: Project, path: str) -> str:
    for modname, info in project.modules.items():
        if info.path == path:
            return modname
    return ""


class _FunctionInterp:
    """Abstract interpreter for one function body (or module body)."""

    def __init__(self, analysis: _Analysis,
                 fn: Optional[FunctionInfo], symbolic: bool,
                 module: Optional[ModuleInfo] = None) -> None:
        self.analysis = analysis
        self.fn = fn
        self.symbolic = symbolic
        self.module = module if module is not None else (
            analysis.project.modules.get(fn.module) if fn else None)
        self.enclosing_class = fn.cls if fn else None
        self.path = fn.path if fn else (module.path if module else "")
        self.env: Dict[str, Set[str]] = {}
        self.summary = Summary()
        self._ret_kinds: Set[str] = set()
        self._ret_params: Set[int] = set()
        self._param_sinks: Dict[int, str] = {}
        self._mutates: Dict[int, Set[str]] = {}
        self._param_fields: Dict[int, Set[str]] = {}
        self.findings: List[Finding] = []
        self._seen: Set[Tuple[str, str, int, int]] = set()
        self._param_index: Dict[str, int] = {}
        #: Worklist dependencies discovered during this run: resolved
        #: callee qnames and field keys read through the table.
        self.called: Set[str] = set()
        self.fields_read: Set[str] = set()
        #: Whether this run saw a call site that could ever report
        #: (used by the summary phase to prune phase B).
        self.saw_report_site = False
        #: local name -> ClassInfo qname, from parameter annotations,
        #: ``self``, and constructor-call assignments.  Typed bases get
        #: class-keyed field lookups; untyped bases fall back to the
        #: (much smaller) global name-keyed table.
        self.var_types: Dict[str, str] = {}
        if fn is not None:
            all_params = tuple(fn.params) + tuple(fn.kwonly_params)
            for i, name in enumerate(all_params):
                self._param_index[name] = i
                self.env[name] = ({T.param_marker(i)} if symbolic
                                  else set())
            annotated = analysis._annot_types.get(fn.qname)
            if annotated is None:
                self._type_params_from_annotations(fn)
                analysis._annot_types[fn.qname] = dict(self.var_types)
            else:
                self.var_types.update(annotated)
            if fn.is_method:
                self.env.setdefault("self", set())
                self.env.setdefault("cls", set())
                if self.module is not None and fn.cls is not None:
                    cls_info = self.module.classes.get(fn.cls)
                    if cls_info is not None:
                        self.var_types["self"] = cls_info.qname
                        self.var_types["cls"] = cls_info.qname

    def _type_params_from_annotations(self, fn: FunctionInfo) -> None:
        if self.module is None:
            return
        args = fn.node.args
        for arg in (args.posonlyargs + args.args + args.kwonlyargs):
            annotation = arg.annotation
            if isinstance(annotation, ast.Subscript):
                annotation = annotation.slice  # Optional[X] -> X
            if isinstance(annotation, (ast.Name, ast.Attribute)):
                resolved = self._class_of_expr_name(annotation)
                if resolved is not None:
                    self.var_types[arg.arg] = resolved

    def _class_of_expr_name(self, node: ast.expr) -> Optional[str]:
        """ClassInfo qname a Name/Attribute annotation refers to."""
        if self.module is None:
            return None
        if isinstance(node, ast.Name):
            ci = self.analysis.project.class_by_local_name(
                node.id, self.module)
            return ci.qname if ci is not None else None
        if isinstance(node, ast.Attribute):
            target = self.analysis.project.resolve(node, self.module)
            if isinstance(target, ClassInfo):
                return target.qname
        return None

    def _type_of(self, node: ast.expr) -> Optional[str]:
        """The tracked class qname of an expression's value, if any."""
        if isinstance(node, ast.Name):
            return self.var_types.get(node.id)
        return None

    # -- driver --------------------------------------------------------
    def run(self) -> Summary:
        if self.fn is not None:
            self.exec_block(self.fn.node.body)
        return Summary(
            return_kinds=frozenset(self._ret_kinds),
            return_params=frozenset(self._ret_params),
            param_sinks=dict(self._param_sinks),
            mutates={i: frozenset(v)
                     for i, v in self._mutates.items() if v},
            param_fields={i: frozenset(v)
                          for i, v in self._param_fields.items() if v},
        )

    def emit(self, node: ast.AST, rule_id: str, message: str) -> None:
        line = getattr(node, "lineno", 1)
        col = getattr(node, "col_offset", 0)
        key = (rule_id, self.path, line, col)
        if key in self._seen:
            return
        self._seen.add(key)
        self.findings.append(Finding(
            rule_id=rule_id, path=self.path, line=line, col=col,
            message=message,
        ))

    # -- statements ----------------------------------------------------
    def exec_block(self, stmts: Iterable[ast.stmt]) -> None:
        # Dispatch inline rather than via exec_stmt: one call frame
        # per statement is measurable at this volume.
        get = _EXEC.get
        for stmt in stmts:
            handler = get(stmt.__class__)
            if handler is not None:
                handler(self, stmt)

    def exec_stmt(self, stmt: ast.stmt) -> None:
        """Interpret one statement (class-keyed dispatch, see
        ``_EXEC``); unknown statement kinds are no-ops."""
        handler = _EXEC.get(stmt.__class__)
        if handler is not None:
            handler(self, stmt)

    def _exec_assign(self, stmt: ast.Assign) -> None:
        value = self.eval(stmt.value)
        for target in stmt.targets:
            self.assign(target, value)
            self._record_type(target, stmt.value)

    def _exec_annassign(self, stmt: ast.AnnAssign) -> None:
        if stmt.value is not None:
            self.assign(stmt.target, self.eval(stmt.value))
            self._record_type(stmt.target, stmt.value)

    def _exec_augassign(self, stmt: ast.AugAssign) -> None:
        value = self.eval(stmt.target) | self.eval(stmt.value)
        self.assign(stmt.target, value)

    def _exec_expr(self, stmt: ast.Expr) -> None:
        self.eval(stmt.value)

    def _exec_return(self, stmt: ast.Return) -> None:
        if stmt.value is not None:
            value = self.eval(stmt.value)
            self._ret_kinds |= T.concrete(value)
            self._ret_params |= T.markers(value)

    def _exec_if(self, stmt: ast.If) -> None:
        self.eval(stmt.test)
        self.exec_block(stmt.body)
        self.exec_block(stmt.orelse)

    def _exec_for(self, stmt: Union[ast.For, ast.AsyncFor]) -> None:
        self.assign(stmt.target, self.element_of(
            self.eval(stmt.iter)))
        # The body runs twice when a name read early can be written
        # later (loop-carried flow, see ``_loop_carries``); findings
        # dedupe on (rule, path, line, col).
        self.exec_block(stmt.body)
        if _loop_carries(stmt):
            self.assign(stmt.target, self.element_of(
                self.eval(stmt.iter)))
            self.exec_block(stmt.body)
        self.exec_block(stmt.orelse)

    def _exec_while(self, stmt: ast.While) -> None:
        # Same conditional double pass as ``_exec_for``.
        self.eval(stmt.test)
        self.exec_block(stmt.body)
        if _loop_carries(stmt):
            self.eval(stmt.test)
            self.exec_block(stmt.body)
        self.exec_block(stmt.orelse)

    def _exec_with(self, stmt: Union[ast.With,
                                     ast.AsyncWith]) -> None:
        for item in stmt.items:
            ctx = self.eval(item.context_expr)
            if item.optional_vars is not None:
                self.assign(item.optional_vars, ctx)
        self.exec_block(stmt.body)

    def _exec_try(self, stmt: ast.Try) -> None:
        self.exec_block(stmt.body)
        for handler in stmt.handlers:
            if handler.name:
                self.env[handler.name] = set()
            self.exec_block(handler.body)
        self.exec_block(stmt.orelse)
        self.exec_block(stmt.finalbody)

    def _exec_funcdef(self, stmt: Union[ast.FunctionDef,
                                        ast.AsyncFunctionDef]) -> None:
        # Nested function / closure: interpret inline against the
        # current environment so captured taint is visible, but
        # keep its returns out of the enclosing summary.
        self.env[stmt.name] = set()
        saved = (self._ret_kinds, self._ret_params)
        self._ret_kinds, self._ret_params = set(), set()
        for arg in (stmt.args.posonlyargs + stmt.args.args
                    + stmt.args.kwonlyargs):
            self.env.setdefault(arg.arg, set())
        self.exec_block(stmt.body)
        self._ret_kinds, self._ret_params = saved

    def _exec_raise(self, stmt: Union[ast.Raise,
                                      ast.Assert]) -> None:
        for sub in ast.iter_child_nodes(stmt):
            if isinstance(sub, ast.expr):
                self.eval(sub)

    def _exec_delete(self, stmt: ast.Delete) -> None:
        for target in stmt.targets:
            if isinstance(target, ast.Name):
                self.env.pop(target.id, None)

    def _record_type(self, target: ast.expr,
                     value: ast.expr) -> None:
        """Track ``x = ClassName(...)`` so later ``x.attr`` reads are
        class-keyed instead of falling back to the global table."""
        if not isinstance(target, ast.Name):
            return
        if isinstance(value, ast.Call) and self.module is not None:
            resolved = self.analysis.project.resolve(
                value.func, self.module, self.enclosing_class)
            if isinstance(resolved, ClassInfo):
                self.var_types[target.id] = resolved.qname
                return
        self.var_types.pop(target.id, None)

    def assign(self, target: ast.expr, value: Set[str]) -> None:
        if isinstance(target, ast.Name):
            self.env[target.id] = set(value)
        elif isinstance(target, ast.Starred):
            self.assign(target.value, value)
        elif isinstance(target, (ast.Tuple, ast.List)):
            unpacked = self.element_of(value)
            for elt in target.elts:
                self.assign(elt, unpacked)
        elif isinstance(target, ast.Attribute):
            self.store_field(target.attr, value,
                             self._type_of(target.value))
            self.eval(target.value)
        elif isinstance(target, ast.Subscript):
            base = target.value
            if isinstance(base, ast.Name):
                self.env.setdefault(base.id, set()).update(value)
                index = self._param_index.get(base.id)
                if index is not None and T.concrete(value):
                    self._mutates.setdefault(index, set()).update(
                        T.concrete(value))
            elif isinstance(base, ast.Attribute):
                self.store_field(base.attr, value,
                                 self._type_of(base.value))

    def store_field(self, name: str, value: Set[str],
                    owner: Optional[str] = None) -> None:
        """Record ``obj.<name> = value`` in the field table.

        Stores through a base of known class land under a
        ``<class qname>::<field>`` key; stores through untyped bases
        fall back to the bare field name.
        """
        if T.is_control_plane_field(name):
            return
        key = f"{owner}::{name}" if owner else name
        kinds = T.concrete(value) & T.FIELD_TRACKED_KINDS
        if kinds:
            self.analysis.add_field_taint(key, kinds)
        for index in T.markers(value):
            self._param_fields.setdefault(index, set()).add(key)

    def field_kinds(self, base: ast.expr, attr: str) -> Set[str]:
        """Field taint visible through an attribute read.

        A typed base sees its class chain's keyed entries plus the
        global bare-name entry (stores through untyped aliases of the
        same object land there).  An untyped base sees only the bare-
        name entry - it cannot alias class-keyed state it never built.
        """
        table = self.analysis.field_taint
        self.fields_read.add(attr)
        entry = table.get(attr)
        kinds = set(entry) if entry else set()
        owner = self._type_of(base)
        if owner is not None:
            for qname in self.analysis.class_chain(owner):
                key = f"{qname}::{attr}"
                self.fields_read.add(key)
                entry = table.get(key)
                if entry:
                    kinds |= entry
        return kinds

    # -- expressions ---------------------------------------------------
    def element_of(self, container: Set[str]) -> Set[str]:
        """Taint of one element drawn from a container: iterating an
        unordered collection makes the *selection* order-dependent."""
        if T.UNORDERED in container:
            return (container - {T.UNORDERED}) | {T.UNORDERED_ITER}
        return set(container)

    def eval(self, node: Optional[ast.expr]) -> Set[str]:
        """Taint of an expression.  Dispatch is a class-keyed table
        (see ``_EVAL``) - this runs hundreds of thousands of times per
        tree, so an isinstance chain is measurably too slow."""
        if node is None:
            return set()
        handler = _EVAL.get(node.__class__)
        if handler is None:
            return set()
        return handler(self, node)

    def _eval_name(self, node: ast.Name) -> Set[str]:
        taint = self.env.get(node.id)
        return set(taint) if taint else set()

    def _eval_constant(self, node: ast.Constant) -> Set[str]:
        return set()

    def _eval_attribute(self, node: ast.Attribute) -> Set[str]:
        base = self.eval(node.value)
        return base | self.field_kinds(node.value, node.attr)

    def _eval_subscript(self, node: ast.Subscript) -> Set[str]:
        if T.is_env_read(node):
            return {T.ENV_READ}
        return self.eval(node.value) | self.eval(node.slice)

    def _eval_binop(self, node: ast.BinOp) -> Set[str]:
        return self.eval(node.left) | self.eval(node.right)

    def _eval_boolop(self, node: ast.BoolOp) -> Set[str]:
        out: Set[str] = set()
        for value in node.values:
            out |= self.eval(value)
        return out

    def _eval_unaryop(self, node: ast.UnaryOp) -> Set[str]:
        return self.eval(node.operand)

    def _eval_compare(self, node: ast.Compare) -> Set[str]:
        # Membership / equality against a set is deterministic:
        # comparisons read values, not iteration order.
        out = self.eval(node.left)
        for comp in node.comparators:
            out |= self.eval(comp)
        return out - {T.UNORDERED}

    def _eval_ifexp(self, node: ast.IfExp) -> Set[str]:
        self.eval(node.test)  # control dependence: not tracked
        return self.eval(node.body) | self.eval(node.orelse)

    def _eval_sequence(self, node: Union[ast.List,
                                         ast.Tuple]) -> Set[str]:
        out: Set[str] = set()
        for elt in node.elts:
            out |= self.eval(elt)
        return out

    def _eval_set(self, node: ast.Set) -> Set[str]:
        out: Set[str] = set()
        for elt in node.elts:
            out |= self.eval(elt)
        return (out - {T.UNORDERED_ITER}) | {T.UNORDERED}

    def _eval_dict(self, node: ast.Dict) -> Set[str]:
        out: Set[str] = set()
        for key in node.keys:
            out |= self.eval(key)
        for value in node.values:
            out |= self.eval(value)
        return out

    def _eval_comp(self, node: Union[ast.ListComp,
                                     ast.GeneratorExp]) -> Set[str]:
        self.bind_comprehension(node.generators)
        return self.eval(node.elt)

    def _eval_setcomp(self, node: ast.SetComp) -> Set[str]:
        self.bind_comprehension(node.generators)
        out = self.eval(node.elt)
        return (out - {T.UNORDERED_ITER}) | {T.UNORDERED}

    def _eval_dictcomp(self, node: ast.DictComp) -> Set[str]:
        self.bind_comprehension(node.generators)
        return self.eval(node.key) | self.eval(node.value)

    def _eval_joinedstr(self, node: ast.JoinedStr) -> Set[str]:
        out: Set[str] = set()
        for value in node.values:
            if isinstance(value, ast.FormattedValue):
                out |= self.eval(value.value)
        return out

    def _eval_formatted(self, node: ast.FormattedValue) -> Set[str]:
        return self.eval(node.value)

    def _eval_starred(self, node: ast.Starred) -> Set[str]:
        return self.element_of(self.eval(node.value))

    def _eval_lambda(self, node: ast.Lambda) -> Set[str]:
        return set()

    def _eval_wrapped(self, node: Union[ast.Await,
                                        ast.YieldFrom]) -> Set[str]:
        return self.eval(node.value)

    def _eval_yield(self, node: ast.Yield) -> Set[str]:
        if node.value is not None:
            value = self.eval(node.value)
            self._ret_kinds |= T.concrete(value)
            self._ret_params |= T.markers(value)
        return set()

    def _eval_namedexpr(self, node: ast.NamedExpr) -> Set[str]:
        value = self.eval(node.value)
        self.assign(node.target, value)
        return value

    def _eval_slice(self, node: ast.Slice) -> Set[str]:
        out: Set[str] = set()
        for sub in (node.lower, node.upper, node.step):
            if sub is not None:
                out |= self.eval(sub)
        return out

    def bind_comprehension(self,
                           generators: List[ast.comprehension]) -> None:
        for gen in generators:
            self.assign(gen.target,
                        self.element_of(self.eval(gen.iter)))
            for cond in gen.ifs:
                self.eval(cond)

    # -- calls ---------------------------------------------------------
    def eval_call(self, call: ast.Call) -> Set[str]:
        arg_taints: List[Set[str]] = [self.eval(a) for a in call.args]
        kw_taints: List[Tuple[Optional[str], Set[str]]] = [
            (kw.arg, self.eval(kw.value)) for kw in call.keywords
        ]
        joined: Set[str] = set()
        for t in arg_taints:
            joined |= t
        for _, t in kw_taints:
            joined |= t

        kind, launder_tag, sink = T.classify_call(call)
        if kind is not None:
            joined.add(kind)
            return joined

        if launder_tag is not None:
            return set(T.apply_launder(launder_tag,
                                       frozenset(joined)))

        if sink is not None:
            self.saw_report_site = True
            self.check_sink_args(call, sink[0], sink[1], arg_taints,
                                 kw_taints)

        target = None
        if self.module is not None:
            target = self.analysis.project.resolve(
                call.func, self.module, self.enclosing_class)

        if isinstance(target, FunctionInfo):
            return self.call_function(call, target, arg_taints,
                                      kw_taints)
        if isinstance(target, ClassInfo):
            return self.call_constructor(call, target, arg_taints,
                                         kw_taints)
        return self.call_unknown(call, arg_taints, kw_taints, joined)

    def _map_args(self, params: Tuple[str, ...],
                  arg_taints: List[Set[str]],
                  kw_taints: List[Tuple[Optional[str], Set[str]]],
                  ) -> Dict[int, Set[str]]:
        """Map call-site argument taints onto callee parameter slots."""
        mapping: Dict[int, Set[str]] = {}
        for i, t in enumerate(arg_taints):
            if i < len(params):
                mapping[i] = t
        for name, t in kw_taints:
            if name is not None and name in params:
                mapping[params.index(name)] = t
        return mapping

    def call_function(self, call: ast.Call, fn: FunctionInfo,
                      arg_taints: List[Set[str]],
                      kw_taints: List[Tuple[Optional[str], Set[str]]],
                      ) -> Set[str]:
        # Sink classification already ran in eval_call.
        self.called.add(fn.qname)
        summary = self.analysis.summaries.get(fn.qname, _NO_SUMMARY)
        if summary.param_sinks:
            self.saw_report_site = True
        # Most summaries are entirely empty; build the arg->param
        # mapping (and walk it) only when some table will consume it.
        mapping: Dict[int, Set[str]] = {}
        if (summary.param_sinks or summary.param_fields
                or summary.mutates or summary.return_params):
            params = tuple(fn.params) + tuple(fn.kwonly_params)
            mapping = self._map_args(params, arg_taints, kw_taints)
        for index, sink in summary.param_sinks.items():
            t = mapping.get(index)
            if not t:
                continue
            for marker in T.markers(t):
                self._param_sinks.setdefault(marker, sink)
            kinds = T.concrete(t)
            if kinds and not self.symbolic:
                self.report_sink(call, kinds,
                                 f"{sink} (via {fn.name}())")
        for index, fnames in summary.param_fields.items():
            t = mapping.get(index)
            if not t:
                continue
            kinds = T.concrete(t)
            for fname in fnames:
                if T.is_control_plane_field(fname):
                    continue
                tracked = kinds & T.FIELD_TRACKED_KINDS
                if tracked:
                    self.analysis.add_field_taint(fname, tracked)
                for marker in T.markers(t):
                    self._param_fields.setdefault(
                        marker, set()).add(fname)
        for index, added in summary.mutates.items():
            if added and index < len(call.args):
                arg = call.args[index]
                if isinstance(arg, ast.Name):
                    self.env.setdefault(arg.id, set()).update(added)

        result: Set[str] = set(summary.return_kinds)
        for index in summary.return_params:
            result |= mapping.get(index, set())
        if fn.is_method and isinstance(call.func, ast.Attribute):
            # A tainted receiver taints what its methods hand back.
            result |= self.eval(call.func.value)
        return result

    def call_constructor(self, call: ast.Call, cls: ClassInfo,
                         arg_taints: List[Set[str]],
                         kw_taints: List[Tuple[Optional[str],
                                               Set[str]]],
                         ) -> Set[str]:
        params = cls.init_params()
        mapping = self._map_args(params, arg_taints, kw_taints)
        for index, t in mapping.items():
            if index < len(params):
                self.store_field(params[index], t, cls.qname)
        # SINK_CONSTRUCTORS classification already ran in eval_call.
        # The object reference itself is deterministic; its tainted
        # fields are tracked through the field table.
        return set()

    def call_unknown(self, call: ast.Call,
                     arg_taints: List[Set[str]],
                     kw_taints: List[Tuple[Optional[str], Set[str]]],
                     joined: Set[str]) -> Set[str]:
        # Sink classification already ran in eval_call.
        result = set(joined)
        if isinstance(call.func, ast.Attribute):
            base = self.eval(call.func.value)
            if call.func.attr in _MUTATORS \
                    and isinstance(call.func.value, ast.Name):
                name = call.func.value.id
                self.env.setdefault(name, set()).update(joined)
                index = self._param_index.get(name)
                if index is not None and T.concrete(joined):
                    self._mutates.setdefault(index, set()).update(
                        T.concrete(joined))
            # Drawing from an unordered receiver (s.pop()) yields an
            # order-dependent value.
            result |= self.element_of(base)
        return result

    # -- sinks ---------------------------------------------------------
    def check_sink_args(self, call: ast.Call, description: str,
                        payload_index: Optional[int],
                        arg_taints: List[Set[str]],
                        kw_taints: List[Tuple[Optional[str], Set[str]]],
                        ) -> None:
        checked: List[Set[str]] = []
        if payload_index is None:
            checked = arg_taints + [t for _, t in kw_taints]
        elif payload_index < len(arg_taints):
            checked = [arg_taints[payload_index]]
        else:
            checked = [t for _, t in kw_taints]
        for t in checked:
            kinds = T.concrete(t)
            for marker in T.markers(t):
                self._param_sinks.setdefault(marker, description)
            if kinds and not self.symbolic:
                self.report_sink(call, kinds, description)

    def report_sink(self, call: ast.Call, kinds: FrozenSet[str],
                    description: str) -> None:
        by_rule: Dict[str, List[str]] = {}
        for kind in sorted(kinds):
            rule = T.RULE_FOR_KIND[kind]
            by_rule.setdefault(rule, []).append(kind)
        for rule, rule_kinds in sorted(by_rule.items()):
            self.emit(
                call, rule,
                f"{'+'.join(rule_kinds)}-tainted value reaches "
                f"{description}; launder it (sorted(), seeded RNG, "
                "soc.timer virtual clock) or justify a suppression",
            )


#: Expression-dispatch table for :meth:`_FunctionInterp.eval`.
_EVAL = {
    ast.Name: _FunctionInterp._eval_name,
    ast.Constant: _FunctionInterp._eval_constant,
    ast.Attribute: _FunctionInterp._eval_attribute,
    ast.Subscript: _FunctionInterp._eval_subscript,
    ast.Call: _FunctionInterp.eval_call,
    ast.BinOp: _FunctionInterp._eval_binop,
    ast.BoolOp: _FunctionInterp._eval_boolop,
    ast.UnaryOp: _FunctionInterp._eval_unaryop,
    ast.Compare: _FunctionInterp._eval_compare,
    ast.IfExp: _FunctionInterp._eval_ifexp,
    ast.List: _FunctionInterp._eval_sequence,
    ast.Tuple: _FunctionInterp._eval_sequence,
    ast.Set: _FunctionInterp._eval_set,
    ast.Dict: _FunctionInterp._eval_dict,
    ast.ListComp: _FunctionInterp._eval_comp,
    ast.GeneratorExp: _FunctionInterp._eval_comp,
    ast.SetComp: _FunctionInterp._eval_setcomp,
    ast.DictComp: _FunctionInterp._eval_dictcomp,
    ast.JoinedStr: _FunctionInterp._eval_joinedstr,
    ast.FormattedValue: _FunctionInterp._eval_formatted,
    ast.Starred: _FunctionInterp._eval_starred,
    ast.Lambda: _FunctionInterp._eval_lambda,
    ast.Await: _FunctionInterp._eval_wrapped,
    ast.YieldFrom: _FunctionInterp._eval_wrapped,
    ast.Yield: _FunctionInterp._eval_yield,
    ast.NamedExpr: _FunctionInterp._eval_namedexpr,
    ast.Slice: _FunctionInterp._eval_slice,
}

#: Statement dispatch for :meth:`_FunctionInterp.exec_stmt` - same
#: rationale as ``_EVAL``: one dict hit replaces a 14-way isinstance
#: chain on the hottest interpreter paths.
_EXEC = {
    ast.Assign: _FunctionInterp._exec_assign,
    ast.AnnAssign: _FunctionInterp._exec_annassign,
    ast.AugAssign: _FunctionInterp._exec_augassign,
    ast.Expr: _FunctionInterp._exec_expr,
    ast.Return: _FunctionInterp._exec_return,
    ast.If: _FunctionInterp._exec_if,
    ast.For: _FunctionInterp._exec_for,
    ast.AsyncFor: _FunctionInterp._exec_for,
    ast.While: _FunctionInterp._exec_while,
    ast.With: _FunctionInterp._exec_with,
    ast.AsyncWith: _FunctionInterp._exec_with,
    ast.Try: _FunctionInterp._exec_try,
    ast.FunctionDef: _FunctionInterp._exec_funcdef,
    ast.AsyncFunctionDef: _FunctionInterp._exec_funcdef,
    ast.Raise: _FunctionInterp._exec_raise,
    ast.Assert: _FunctionInterp._exec_raise,
    ast.Delete: _FunctionInterp._exec_delete,
}


# ----------------------------------------------------------------------
# Driver
# ----------------------------------------------------------------------
def analyze_modules(modules: List[ParsedModule]) -> List[Finding]:
    """Run both phases over parsed modules; returns raw (unsuppressed)
    taint + clock findings in deterministic order."""
    project = Project.build(modules)
    analysis = _Analysis(project)
    analysis.run_summaries()
    findings: List[Finding] = []
    for parsed in modules:
        findings.extend(analysis.report_module(parsed))
        findings.extend(check_clocks(parsed, project))
    findings.sort(key=lambda f: (f.path, f.line, f.col, f.rule_id))
    return findings


def _apply_suppressions(
    parsed_by_path: Dict[str, ParsedModule],
    findings: List[Finding],
) -> Tuple[List[Finding], int]:
    """Filter findings through justified ``bt-flow`` suppressions.

    An unjustified suppression comment suppresses nothing and adds a
    ``BAD-SUPPRESSION`` finding where it sits.
    """
    kept: List[Finding] = []
    suppressed = 0
    for finding in findings:
        parsed = parsed_by_path.get(finding.path)
        if parsed is None:
            kept.append(finding)
            continue
        table = parsed.suppressions(TOOL_TAG)
        covering = suppressed_at(finding.rule_id, finding.line, table)
        if covering is not None and covering.justification:
            suppressed += 1
        else:
            kept.append(finding)
    for path in sorted(parsed_by_path):
        parsed = parsed_by_path[path]
        for line, suppression in sorted(
                parsed.suppressions(TOOL_TAG).items()):
            if not suppression.justification:
                kept.append(Finding(
                    rule_id="BAD-SUPPRESSION", path=path, line=line,
                    col=0,
                    message=(
                        "bt-flow suppression without a justification; "
                        "append ' -- <why this is deterministic>'"
                    ),
                ))
    kept.sort(key=lambda f: (f.path, f.line, f.col, f.rule_id))
    return kept, suppressed


def analyze_paths(
    paths: Iterable[Union[str, Path]],
    cache: Optional[AstCache] = None,
) -> FlowReport:
    """Flow-analyze every ``.py`` file under ``paths``.

    Parsing shares the process-wide :class:`AstCache` with ``repro
    lint``, so running both tools parses each file once.

    Raises:
        AnalysisError: A path is missing, unreadable, or unparseable.
    """
    cache = cache if cache is not None else ast_cache()
    files = collect_files(Path(p) for p in paths)
    modules = [cache.get(f) for f in files]
    findings = analyze_modules(modules)
    parsed_by_path = {m.path: m for m in modules}
    kept, suppressed = _apply_suppressions(parsed_by_path, findings)
    return FlowReport(findings=kept, files_checked=len(modules),
                      suppressed=suppressed)


def analyze_source(source: str, path: str = "<string>") -> FlowReport:
    """Flow-analyze one in-memory module (test convenience)."""
    parsed = parse_module(source, path)
    findings = analyze_modules([parsed])
    kept, suppressed = _apply_suppressions({path: parsed}, findings)
    return FlowReport(findings=kept, files_checked=1,
                      suppressed=suppressed)
