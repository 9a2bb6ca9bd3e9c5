"""One server: a plan is solved by the first reader of its K-best.

Admission capped at one PU class per tenant picks among
``CachedPlan.singles`` and never solves; the rescheduler, on which the
cap does not bind, re-ranks the full list, so the first re-rank of a
plan solves it - once.  The oracle is the same server with every plan
answering ``singles`` off its *solved* list (the root conftest's
``always_solve``, a test-only monkeypatch - there is no production
switch): every report, timeline, history and span list must come out
byte-identical either way, with strictly fewer solves shipped.  An
uncapped server reads the solved list at its first pricing, as ever.
"""

import pytest

from repro.serve.admission import ADMIT
from repro.serve.tenant import TenantSpec

from tests.serve.conftest import bare_server, drifting_soak, observed
from tests.serve.test_admission_oracle import (
    reference_evaluate,
    same_decision,
)
from tests.solve_oracle import (
    count_solves,
    distinct,
    first_difference,
    record_reranks,
)


@pytest.mark.parametrize("reschedule", [False, True],
                         ids=["frozen", "reschedule"])
def test_soak_bytes_do_not_depend_on_when_a_plan_is_solved(
        monkeypatch, always_solve, reschedule):
    solved = count_solves(monkeypatch)
    reranked = record_reranks(monkeypatch)
    # The shipped soak - a hard and two soft placements, the probe the
    # fleet rejects, an open-ended drift - plus a drift that comes and
    # goes.
    server, report = drifting_soak(reschedule)()
    shipped = observed(server, report)
    events = [e["event"] for e in server.timeline]
    assert "tenant-probe" not in server.records     # never placed
    assert ("reschedule" in events) == reschedule
    # One solve per plan somebody re-ranked, however often.
    assert sorted(solved) == distinct(reranked)
    assert bool(solved) == reschedule
    if reschedule:
        assert len(reranked) > len(solved)
    paid = len(solved)

    always_solve()
    del solved[:]
    oracle_server, oracle_report = drifting_soak(reschedule)()
    assert first_difference(
        shipped, observed(oracle_server, oracle_report)) is None
    # The eager design solves every plan it prices.
    assert len(solved) == report.plan_cache["misses"] > paid


def test_an_uncapped_server_solves_at_its_first_pricing(
        monkeypatch, platform, app):
    solved = count_solves(monkeypatch)
    server = bare_server(platform, max_partition_classes=None)
    assert server.admission.max_partition_classes is None
    for index in range(3):
        spec = TenantSpec(name=f"wide{index}", application=app,
                          windows=4, window_tasks=4)
        decision = server.price(spec)
        assert solved == [app.name]
        assert same_decision(decision, reference_evaluate(
            server.admission, spec, server.placement,
            server.running_records()))
        if decision.action == ADMIT:
            # One of the solver's own candidate objects, rank and all.
            plan = server.plan_cache.plan_for(app)
            assert any(decision.candidate is c
                       for c in plan.optimization.candidates)
            server.admit(spec, 0, decision)
    assert len(server.placement) >= 1
