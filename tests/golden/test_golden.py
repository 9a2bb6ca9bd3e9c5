"""Tier-1's slice of the golden corpus (``python -m tests.golden check``
runs all of it).

Every case but the threaded ``faultsim`` runs and the paper ``report``
runs in-process (a few seconds together); the traced fleet soak also
runs in a subprocess under a hash seed other than this process's, so
set-order leaks into the trace fail here, not only in CI.
"""

import hashlib
import os
import re

import pytest

from tests.golden import BY_NAME, CASES, REPO, load, moved, \
    run_in_process, run_subprocess

STORED = load()

IN_PROCESS = [case for case in CASES
              if not case.name.startswith(("faultsim", "report"))]


def test_every_case_has_a_digest():
    assert sorted(STORED) == sorted(case.name for case in CASES)


@pytest.mark.parametrize("case", IN_PROCESS, ids=lambda case: case.name)
def test_case_reproduces_its_digests(case, tmp_path):
    got = run_in_process(case, tmp_path)
    assert moved(STORED[case.name], got) == []


def test_traced_fleet_under_another_hash_seed():
    # Hash seeds differ between runs unless PYTHONHASHSEED pins them.
    other = "2" if os.environ.get("PYTHONHASHSEED") == "1" else "1"
    got = run_subprocess(BY_NAME["fleet@7"], hash_seed=other)
    assert moved(STORED["fleet@7"], got) == []


def test_experiments_block_is_the_report_stdout():
    # EXPERIMENTS.md's scorecard is `repro report`'s stdout, verbatim.
    text = (REPO / "EXPERIMENTS.md").read_text()
    block = re.search(r"<!-- repro report -->\n```text\n(.*?\n)```\n",
                      text, re.S)
    assert block is not None, "EXPERIMENTS.md lost its report block"
    digest = hashlib.sha256(block.group(1).encode()).hexdigest()
    assert digest == STORED["report"]["stdout"]
