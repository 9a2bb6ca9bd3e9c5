"""Shared fixtures: one smoke ledger run serves every test that needs
a results file."""

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]


def run_bench(*args, cwd=ROOT, env=None):
    """``python -m bench ...`` as a user would run it."""
    return subprocess.run(
        [sys.executable, "-m", "bench", *args], cwd=cwd, env=env,
        text=True, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        timeout=170,
    )


@pytest.fixture(scope="session")
def smoke_results(tmp_path_factory):
    out = tmp_path_factory.mktemp("bench") / "results.json"
    done = run_bench("--scale", "smoke", "--out", str(out))
    assert done.returncode == 0, done.stderr
    with open(out) as source:
        return json.load(source), out, done.stdout
