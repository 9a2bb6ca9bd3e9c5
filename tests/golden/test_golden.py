"""Tier-1's slice of the golden corpus (``python -m tests.golden
check|memo-off|reference`` runs all of it).

Every case but the threaded ``faultsim`` runs and the paper ``report``
runs in-process (a few seconds together), once against its digests and
once through the memo-off arm; the traced fleet soak also runs in a
subprocess under a hash seed other than this process's, so set-order
leaks into the trace fail here, not only in CI.  One faultsim case runs
in-process too, for its report's dropout section, and two cases run
through the reference arm.
"""

import hashlib
import json
import os
import re

import pytest

from tests.golden import BY_NAME, CASES, REFERENCE, REPO, load, moved, \
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


@pytest.mark.parametrize("case", IN_PROCESS, ids=lambda case: case.name)
def test_case_writes_the_same_bytes_with_the_memos_off(case, tmp_path):
    (tmp_path / "on").mkdir()
    (tmp_path / "off").mkdir()
    on = run_in_process(case, tmp_path / "on", memos=True)
    assert moved(on, run_in_process(case, tmp_path / "off", memos=False)) == []


def test_faultsim_case_byte_checks_the_dropout_phase(tmp_path):
    # The faultsim digests cover the DES's dropout path only while the
    # report has one: a change that skipped phase 2 would move them, and
    # an update of the digests would then hide it.
    got = run_in_process(BY_NAME["faultsim@5"], tmp_path)
    assert moved(STORED["faultsim@5"], got) == []
    report = json.loads((tmp_path / "faultsim.json").read_text())
    assert [event["kind"] for event in report["dropout"]["events"]] == [
        "pu-dropout", "fallback"]


def test_traced_fleet_under_another_hash_seed():
    # Hash seeds differ between runs unless PYTHONHASHSEED pins them.
    other = "2" if os.environ.get("PYTHONHASHSEED") == "1" else "1"
    got = run_subprocess(BY_NAME["fleet@7"], hash_seed=other)
    assert moved(STORED["fleet@7"], got) == []


@pytest.mark.parametrize("name", ["serve@7", "plan-alexnet"])
def test_case_reproduces_its_digests_on_the_reference_engine(name):
    # A fresh process fills every jitter column cold, and runs every
    # executor on the reference loop: a cold plan and a served soak
    # write the compiled kernel's bytes.
    got = run_subprocess(BY_NAME[name], module=REFERENCE)
    assert moved(STORED[name], got) == []


def test_experiments_block_is_the_report_stdout():
    # EXPERIMENTS.md's scorecard is `repro report`'s stdout, verbatim.
    text = (REPO / "EXPERIMENTS.md").read_text()
    block = re.search(r"<!-- repro report -->\n```text\n(.*?\n)```\n",
                      text, re.S)
    assert block is not None, "EXPERIMENTS.md lost its report block"
    digest = hashlib.sha256(block.group(1).encode()).hexdigest()
    assert digest == STORED["report"]["stdout"]
