"""The mutation matrix's static column, in tier-1.

Every mutant ``repro flow`` kills must stay killed: the flow check on
the mutated module reports the rule the matrix records.  The shipped
tree and the false-positive fixture stay clean.
"""

from pathlib import Path

import pytest

from repro.analysis.flow import analyze_paths, analyze_source
from tests.mutation import MUTANTS, SRC

FIXTURES = Path(__file__).resolve().parent.parent / "flow_fixtures"

KILLED = [mutant for mutant in MUTANTS if mutant.flow_rule]


def test_flow_kills_the_direct_leaks():
    assert sorted(mutant.name for mutant in KILLED) == ["M1", "M11", "M7", "M8"]


@pytest.mark.parametrize("mutant", KILLED, ids=lambda mutant: mutant.name)
def test_flow_reports_the_mutant(mutant):
    path = SRC / mutant.file
    clean = analyze_source(path.read_text(), str(path))
    mutated = analyze_source(mutant.apply(path.read_text()), str(path))
    assert clean.findings == []
    assert [f.rule_id for f in mutated.findings] == [mutant.flow_rule]


def test_shipped_tree_and_laundering_fixture_are_clean():
    report = analyze_paths([SRC, FIXTURES / "good_laundering.py"])
    assert report.findings == []
