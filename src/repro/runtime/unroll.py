"""Loop unrolling for the DES kernel: one template, one function per width.

The simulator's event loop (``simulator._VectorEngine._LOOP``) is
written once, for any number of chunk servers, as Python source in
which per-server state is a list indexed by the server (``sig[i]``).
:func:`unrolled` compiles it for one width: each ``for i in SERVERS:``
becomes one copy of its body per server and each ``(... for i in
SERVERS)`` a tuple, with ``i`` the server's index, and a per-server list
read at a constant index becomes a local (``ready[i + 1]`` is
``ready_1`` in server 0's copy).  The result is the same statements in
the same order, so every float operation is the template's, with list
cells replaced by fast locals.
"""

from __future__ import annotations

import ast
import copy
import textwrap
from typing import Callable, Iterable


class _Unroll(ast.NodeTransformer):
    def __init__(self, width: int, per_server: Iterable[str]):
        self.width = width
        self.per_server = frozenset(per_server)
        self.server = 0

    def _each(self, nodes: list) -> list:
        copies = []
        for server in range(self.width):
            self.server = server
            copies += [self.visit(copy.deepcopy(node)) for node in nodes]
        return copies

    def visit_For(self, node: ast.For):
        if getattr(node.iter, "id", None) != "SERVERS":
            return self.generic_visit(node)
        return self._each(node.body)

    def visit_GeneratorExp(self, node: ast.GeneratorExp) -> ast.expr:
        if getattr(node.generators[0].iter, "id", None) != "SERVERS":
            return self.generic_visit(node)
        return ast.Tuple(self._each([node.elt]), ast.Load())

    def visit_Name(self, node: ast.Name) -> ast.expr:
        return ast.Constant(self.server) if node.id == "i" else node

    def visit_Subscript(self, node: ast.Subscript) -> ast.expr:
        self.generic_visit(node)
        if getattr(node.value, "id", None) not in self.per_server:
            return node
        index = eval(compile(ast.fix_missing_locations(
            ast.Expression(node.slice)), "<index>", "eval"), {})
        return ast.Name(f"{node.value.id}_{index}", node.ctx)


def unrolled(template: str, width: int, per_server: Iterable[str],
             namespace: dict) -> Callable:
    """The one function ``template`` defines, unrolled over ``width``
    servers, with ``namespace`` as its globals.

    Args:
        template: Source of one function definition (any indentation).
        width: Number of servers: ``SERVERS`` is ``range(width)``.
        per_server: Names of the template's per-server lists.
        namespace: The globals the compiled function reads.
    """
    tree = _Unroll(width, per_server).visit(
        ast.parse(textwrap.dedent(template)))
    (function,) = tree.body
    scope: dict = {}
    exec(compile(ast.fix_missing_locations(tree),
                 f"<{function.name}, width {width}>", "exec"),
         namespace, scope)
    return scope[function.name]
