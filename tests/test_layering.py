"""The package graph of ``src/repro`` is layered.

Every import between two packages points down one declared order, so
the planner (``core``) sits on the runtime it drives and not the other
way round, and the developer tooling (``analysis``) is a leaf only the
CLI loads.  The graph is read from the AST: each module-level import
(``if TYPE_CHECKING:`` blocks excluded) plus the parent packages it
implies - ``import repro.a.b`` also runs ``repro/a/__init__.py``.
"""

import ast
from pathlib import Path
from typing import Iterator, List, Set, Tuple

import repro

SRC = Path(repro.__file__).resolve().parent

#: Lowest first.  A module may import its own package and any package
#: to its left; ``stage`` and ``errors`` are single modules.
ORDER = (
    "errors", "soc", "solver", "kernels", "stage", "apps", "obs",
    "runtime", "core", "baselines", "serve", "fleet", "traffic", "eval",
    "analysis", "cli",
)


def module_name(path: Path) -> str:
    parts = list(path.relative_to(SRC.parent).with_suffix("").parts)
    if parts[-1] == "__init__":
        parts.pop()
    return ".".join(parts)


def layer(module: str) -> str:
    """``repro.core.schedule`` -> ``core``; the entry point is ``cli``."""
    name = module.split(".")[1]
    return "cli" if name == "__main__" else name


def is_type_checking(node: ast.If) -> bool:
    test = node.test
    return (getattr(test, "id", None) == "TYPE_CHECKING"
            or getattr(test, "attr", None) == "TYPE_CHECKING")


def module_level_imports(body: List[ast.stmt]) -> Iterator[ast.stmt]:
    """Imports that run when the module loads: not in a function body,
    not under ``if TYPE_CHECKING:``."""
    for node in body:
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            yield node
        elif isinstance(node, ast.If):
            if not is_type_checking(node):
                yield from module_level_imports(node.body)
            yield from module_level_imports(node.orelse)
        elif isinstance(node, ast.Try):
            for block in (node.body, node.orelse, node.finalbody,
                          *(h.body for h in node.handlers)):
                yield from module_level_imports(block)
        elif isinstance(node, ast.ClassDef):
            yield from module_level_imports(node.body)


def function_level_imports(tree: ast.Module) -> Iterator[ast.stmt]:
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            for inner in ast.walk(node):
                if isinstance(inner, (ast.Import, ast.ImportFrom)):
                    yield inner


def imported_modules(node: ast.stmt, importer: str) -> Set[str]:
    """The ``repro`` modules ``node`` loads, implied parents included."""
    if isinstance(node, ast.Import):
        targets = [alias.name for alias in node.names]
    else:
        base = node.module or ""
        if node.level:  # relative: climb from the importer's package
            package = importer.split(".")
            if FILES[importer].name != "__init__.py":
                package.pop()
            package = package[:len(package) + 1 - node.level]
            base = ".".join(package + ([base] if base else []))
        targets = [base] + [f"{base}.{alias.name}" for alias in node.names
                            if f"{base}.{alias.name}" in FILES]
    loaded = set()
    for target in targets:
        parts = target.split(".")
        if parts[0] == "repro":
            loaded.update(
                ".".join(parts[:i]) for i in range(2, len(parts) + 1))
    return loaded


FILES = {module_name(path): path for path in sorted(SRC.rglob("*.py"))}
TREES = {name: ast.parse(path.read_text(encoding="utf-8"))
         for name, path in FILES.items()}


def edges() -> Set[Tuple[str, str]]:
    """(importer, imported) module pairs from module-level imports."""
    return {
        (name, target)
        for name, tree in TREES.items()
        for node in module_level_imports(tree.body)
        for target in imported_modules(node, name)
    }


def test_every_package_has_a_place_in_the_order():
    packages = {layer(name) for name in TREES if name != "repro"}
    assert packages <= set(ORDER), sorted(packages - set(ORDER))


def test_every_cross_package_import_points_down():
    upward = sorted(
        f"{importer} -> {target}"
        for importer, target in edges()
        if importer != "repro"
        and ORDER.index(layer(target)) > ORDER.index(layer(importer))
    )
    assert upward == []


def test_only_the_cli_imports_the_analysis_package():
    importers = set()
    for name, tree in TREES.items():
        for node in ast.walk(tree):
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                targets = imported_modules(node, name)
                if any(layer(t) == "analysis" for t in targets):
                    importers.add(layer(name))
    assert importers <= {"analysis", "cli"}, sorted(importers)


def test_only_the_cli_imports_inside_a_function():
    """The CLI defers each command's imports to keep start-up light;
    everywhere else an import inside a function hides a cycle."""
    deferred = sorted({
        f"{name}:{node.lineno}"
        for name, tree in TREES.items() if name != "repro.cli"
        for node in function_level_imports(tree)
        if imported_modules(node, name)
    })
    assert deferred == []


def test_the_root_package_imports_nothing_from_repro():
    root = TREES["repro"]
    assert not [
        node for node in ast.walk(root)
        if isinstance(node, (ast.Import, ast.ImportFrom))
        and imported_modules(node, "repro")
    ]
