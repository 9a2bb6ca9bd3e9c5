"""Import weight, measured in a fresh interpreter.

The package graph is layered (``tests/test_layering.py``), so what an
import loads follows from where a module sits: the root package and
:mod:`repro.errors` import nothing, and no runtime, serving, fleet or
traffic module reaches the linter package.
"""

import subprocess
import sys
from pathlib import Path

import repro

_SRC = str(Path(repro.__file__).resolve().parents[1])


def loaded_after(statement: str, prefix: str = "repro"):
    """The ``prefix*`` modules a fresh interpreter holds after
    ``statement``."""
    code = (
        f"import sys\n{statement}\n"
        f"print(' '.join(sorted(m for m in sys.modules"
        f" if m.startswith({prefix!r}))))\n"
    )
    return subprocess.run(
        [sys.executable, "-c", code], env={"PYTHONPATH": _SRC},
        capture_output=True, text=True, check=True, timeout=120,
    ).stdout.split()


def test_importing_errors_loads_two_modules():
    assert loaded_after("import repro.errors") == ["repro", "repro.errors"]


def test_importing_repro_leaves_the_linter_unloaded():
    loaded = loaded_after(
        "import repro.runtime, repro.serve, repro.fleet, repro.traffic",
        prefix="repro.analysis",
    )
    assert loaded == []
