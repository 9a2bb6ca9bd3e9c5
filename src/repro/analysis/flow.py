"""Per-function determinism-flow check (the ``FLOW-*`` lint rules).

The per-statement rules (:mod:`repro.analysis.rules`) flag a
``time.time()`` call *at the call site*, wherever it is; this check
flags a nondeterministic value only where it reaches report bytes.  It
looks at one function at a time (the module body counts as one more):

* a local name carries the taint of every value assigned to it anywhere
  in the function - assignments, loop and ``with`` targets, container
  mutation (``xs.append(v)``, ``d[k] = v``, ``obj.attr = v``) - so
  statement order and branches do not matter;
* sources and launderers are :mod:`repro.analysis.taint`'s tables;
* the sinks are a ``SINK_CALLS`` payload, any argument of a
  ``SINK_CONSTRUCTORS`` call, and the value a ``to_dict`` method
  returns.

Nothing crosses a call: a helper's return value is as clean as its
arguments.  The golden corpus (``tests/golden``) catches what travels
further - the mutation matrix (``tests/mutation/MATRIX.md``) is the
record of which guard catches what.

The check is one registered rule, run by ``repro lint`` on every module
next to the per-statement ones; its findings are suppressed like theirs
(:mod:`repro.analysis.linter`).  Control dependence is out of scope:
branching on ``os.environ`` (the ``REPRO_CHECK`` checker switch)
taints nothing.
"""

from __future__ import annotations

import ast
import re
from typing import Dict, Iterator, List, Optional, Set, Tuple

from repro.analysis import taint as T
from repro.analysis.rules import Finding, Rule, register

#: Method names that mutate their receiver with their arguments.
_MUTATORS = frozenset({
    "append", "add", "extend", "insert", "update", "setdefault",
    "push", "put", "appendleft", "add_event",
})

#: A module that never calls a sink nor defines ``to_dict`` has nothing
#: to report: the check skips it without walking its tree.
_SINK_NAMES = re.compile(r"\b(?:%s)\s*\(" % "|".join(
    sorted({*T.SINK_CALLS, *T.SINK_CONSTRUCTORS, "to_dict"})))


def _element(taint: Set[str]) -> Set[str]:
    """Taint of one element drawn from a container: iterating an
    unordered collection makes the *selection* order-dependent."""
    if T.UNORDERED in taint:
        return (taint - {T.UNORDERED}) | {T.UNORDERED_ITER}
    return taint


class _Scope:
    """One function body (or module body) and its name taints."""

    def __init__(self, nodes: List[ast.AST]) -> None:
        self.nodes = nodes
        self.env: Dict[str, Set[str]] = {}

    # -- bindings ------------------------------------------------------
    def _bindings(self) -> Iterator[Tuple[ast.expr, Set[str]]]:
        """(target, taint flowing into it) for every binding site."""
        for node in self.nodes:
            if isinstance(node, ast.Assign):
                value = self.eval(node.value)
                for target in node.targets:
                    yield target, value
            elif isinstance(node, (ast.AnnAssign, ast.AugAssign,
                                   ast.NamedExpr)) \
                    and node.value is not None:
                yield node.target, self.eval(node.value)
            elif isinstance(node, (ast.For, ast.AsyncFor,
                                   ast.comprehension)):
                yield node.target, _element(self.eval(node.iter))
            elif isinstance(node, ast.withitem) \
                    and node.optional_vars is not None:
                yield node.optional_vars, self.eval(node.context_expr)
            elif (isinstance(node, ast.Call)
                  and isinstance(node.func, ast.Attribute)
                  and node.func.attr in _MUTATORS):
                yield node.func.value, self._joined_args(node)

    def _bind(self, target: ast.expr, value: Set[str]) -> bool:
        """Join ``value`` into the name ``target`` stores to; whether
        anything grew."""
        if isinstance(target, (ast.Tuple, ast.List)):
            grew = False
            for elt in target.elts:
                grew |= self._bind(elt, _element(value))
            return grew
        while isinstance(target, (ast.Starred, ast.Subscript,
                                  ast.Attribute)):
            target = target.value  # xs[k] = v, obj.attr = v: taint xs
        if not isinstance(target, ast.Name) or not value:
            return False
        entry = self.env.setdefault(target.id, set())
        if value <= entry:
            return False
        entry |= value
        return True

    def settle(self) -> None:
        """Propagate bindings until no name's taint grows (taint sets
        only grow, so this terminates)."""
        grew = True
        while grew:
            grew = False
            for target, value in list(self._bindings()):
                grew |= self._bind(target, value)

    # -- expressions ---------------------------------------------------
    def eval(self, node: Optional[ast.AST]) -> Set[str]:
        """Taint of an expression under the current name taints."""
        if node is None or isinstance(node, ast.Lambda):
            return set()
        if isinstance(node, ast.Name):
            return set(self.env.get(node.id, ()))
        if isinstance(node, ast.Call):
            return self._eval_call(node)
        if isinstance(node, ast.Subscript) and T.is_env_read(node):
            return {T.ENV_READ}
        if isinstance(node, ast.IfExp):
            # Control dependence is not tracked: the test is not data.
            return self.eval(node.body) | self.eval(node.orelse)
        if isinstance(node, (ast.ListComp, ast.GeneratorExp,
                             ast.SetComp)):
            out = self.eval(node.elt)
        elif isinstance(node, ast.DictComp):
            out = self.eval(node.key) | self.eval(node.value)
        else:
            out = set()
            for child in ast.iter_child_nodes(node):
                out |= self.eval(child)
        if isinstance(node, (ast.Set, ast.SetComp)):
            return (out - {T.UNORDERED_ITER}) | {T.UNORDERED}
        if isinstance(node, ast.Compare):
            # Membership / equality against a set reads values, not
            # iteration order.
            return out - {T.UNORDERED}
        if isinstance(node, ast.Starred):
            return _element(out)
        return out

    def _joined_args(self, call: ast.Call) -> Set[str]:
        out: Set[str] = set()
        for arg in call.args:
            out |= self.eval(arg)
        for keyword in call.keywords:
            out |= self.eval(keyword.value)
        return out

    def _eval_call(self, call: ast.Call) -> Set[str]:
        joined = self._joined_args(call)
        kind = T.source_kind(call)
        if kind is not None:
            return joined | {kind}
        laundered = T.launder(call, joined)
        if laundered is not None:
            return set(laundered)
        if isinstance(call.func, ast.Attribute):
            # A tainted receiver taints what its methods hand back, and
            # drawing from an unordered one (s.pop()) picks by order.
            joined |= _element(self.eval(call.func.value))
        return joined

    # -- sinks ---------------------------------------------------------
    def sinks(self, is_to_dict: bool,
              ) -> List[Tuple[ast.AST, List[ast.expr], str]]:
        """(node, payload expressions, sink description) for every
        sink in the scope."""
        out: List[Tuple[ast.AST, List[ast.expr], str]] = []
        for node in self.nodes:
            if isinstance(node, ast.Return) and is_to_dict \
                    and node.value is not None:
                out.append((node, [node.value], "to_dict() return value"))
            if not isinstance(node, ast.Call):
                continue
            sink = T.sink_for_call(node)
            if sink is None:
                continue
            description, index = sink
            keywords = [kw.value for kw in node.keywords]
            if index is None:
                payload = node.args + keywords
            elif index < len(node.args):
                payload = [node.args[index]]
            else:
                payload = keywords
            out.append((node, payload, description))
        return out


def _scopes(tree: ast.Module) -> List[Tuple[List[ast.AST], bool]]:
    """(nodes, is a ``to_dict`` method) for the module body and every
    function in it, methods and nested functions included.  Each node
    belongs to its innermost function; class bodies belong to none."""
    module: List[ast.AST] = []
    scopes = [(module, False)]
    stack: List[Tuple[ast.AST, Optional[List[ast.AST]]]] = [
        (stmt, module) for stmt in tree.body]
    while stack:
        node, owner = stack.pop()
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            owner = []
            scopes.append((owner, node.name == "to_dict"))
            stack.extend((stmt, owner) for stmt in node.body)
            continue
        if isinstance(node, ast.ClassDef):
            stack.extend((stmt, None) for stmt in node.body)
            continue
        if owner is not None:
            owner.append(node)
        stack.extend((child, owner)
                     for child in ast.iter_child_nodes(node))
    return scopes


def _check_module(tree: ast.Module, path: str) -> List[Finding]:
    findings: Dict[Tuple[str, int, int], Finding] = {}
    for nodes, is_to_dict in _scopes(tree):
        scope = _Scope(nodes)
        sinks = scope.sinks(is_to_dict)
        if not sinks:
            continue  # most scopes: nothing to settle
        scope.settle()
        for node, payload, description in sinks:
            for expr in payload:
                taint = scope.eval(expr)
                for kind in sorted(taint):
                    rule = T.RULE_FOR_KIND[kind]
                    key = (rule, node.lineno, node.col_offset)
                    if key in findings:
                        continue
                    kinds = "+".join(sorted(
                        k for k in taint if T.RULE_FOR_KIND[k] == rule))
                    findings[key] = Finding(
                        rule_id=rule, path=path, line=node.lineno,
                        col=node.col_offset,
                        message=(
                            f"{kinds}-tainted value reaches "
                            f"{description}; launder it (sorted(), "
                            "seeded RNG, soc.timer virtual clock) or "
                            "justify a suppression"
                        ),
                    )
    return list(findings.values())


@register
class FlowRule(Rule):
    """Nondeterminism sources reaching report bytes (see the module
    docstring); one pass per module reports every ``FLOW-*`` id."""

    rule_id = "FLOW"  # the registry key; the catalog lists the FLOW-* ids

    def applies(self, path: str, source: str) -> bool:
        return _SINK_NAMES.search(source) is not None

    def check(self, tree: ast.AST, path: str) -> Iterator[Finding]:
        return iter(_check_module(tree, path))

    def catalog(self) -> Tuple[Tuple[str, str], ...]:
        return tuple((rule_id, T.RULE_SUMMARIES[rule_id])
                     for rule_id in T.ALL_FLOW_RULES)
