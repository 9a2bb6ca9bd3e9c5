"""``repro.analysis`` stays import-light: the runtime imports it at
module load, so a process that never lints must not pay for the linter.
"""

import subprocess
import sys
from pathlib import Path

import repro
import repro.analysis

_SRC = str(Path(repro.__file__).resolve().parents[1])


def test_importing_repro_leaves_the_linter_unloaded():
    code = (
        "import sys, repro, repro.runtime.task_object\n"
        "loaded = sorted(m for m in sys.modules"
        " if m.startswith('repro.analysis'))\n"
        "print(' '.join(loaded))\n"
    )
    out = subprocess.run(
        [sys.executable, "-c", code], env={"PYTHONPATH": _SRC},
        capture_output=True, text=True, check=True, timeout=120,
    ).stdout.split()
    assert "repro.analysis.runtime_checks" in out
    assert "repro.analysis.lock_order" in out
    for lazy in ("linter", "flow", "report", "rules", "taint"):
        assert f"repro.analysis.{lazy}" not in out, out


def test_every_exported_name_still_resolves():
    for name in repro.analysis.__all__:
        assert getattr(repro.analysis, name) is not None, name
    from repro.analysis import Finding, lint_paths, render_lint_text

    assert callable(lint_paths) and callable(render_lint_text)
    assert Finding.__module__ == "repro.analysis.rules"


def test_unknown_attribute_is_an_attribute_error():
    try:
        repro.analysis.no_such_name
    except AttributeError as exc:
        assert "no_such_name" in str(exc)
    else:
        raise AssertionError("expected AttributeError")
