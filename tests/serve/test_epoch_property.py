"""Generated sequences through one stepped ``PipelineServer`` and its
memo-off twin.

A first, small step towards generated whole-fleet scenarios: rules -
``try_admit`` / ``step`` / ``withdraw`` / ``rescind`` /
``inject_drift`` - are drawn by hypothesis and played through a server
as shipped and through a twin with every host memo off
(``tests.memo_off``).  After *every* rule the two must show the same
tenant records and partitions: whatever order
admissions, releases, rollbacks, SWITCHes and drift edges come in, no
verdict, incumbent row or co-load view outlives the placement it was
derived from.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.apps.synthetic import build_synthetic_application
from repro.core.plan_cache import PlanCache
from repro.serve.admission import ADMIT
from repro.serve import server as server_module
from repro.serve.tenant import TenantSpec
from repro.soc.interference import ExternalLoad

from tests.memo_off import memos_off
from tests.serve.conftest import bare_server, records

CLASSES = ("big", "medium", "little", "gpu")
APPS = tuple(build_synthetic_application(seed=seed, stage_count=2)
             for seed in (11, 12))

classes = st.frozensets(st.sampled_from(CLASSES), max_size=1)
tenants = st.tuples(
    st.just("try_admit"),
    st.integers(0, len(APPS) - 1),      # application
    classes, classes,                   # required, preferred
    st.integers(0, 2),                  # priority
    st.integers(1, 4),                  # windows
)
step = st.tuples(st.just("step"))
rules = st.builds(
    # Open with enough tenants to contend for four PU classes, then mix.
    lambda opening, rest: opening + rest,
    st.lists(tenants, min_size=3, max_size=6),
    st.lists(st.one_of(
        tenants, step, step, step,
        st.tuples(st.just("withdraw"), st.integers(0, 7)),
        st.tuples(st.just("rescind"), st.integers(0, 7)),
        st.tuples(st.just("inject_drift"),
                  st.one_of(st.none(), st.integers(1, 3)),
                  st.sampled_from(CLASSES)),
    ), min_size=6, max_size=16),
)


@pytest.fixture(scope="module")
def warm_cache(platform):
    """Both applications planned up front, so ``misses`` reads the
    same for every server that shares the cache."""
    cache = PlanCache(platform)
    for application in APPS:
        cache.plan_for(application)
    return cache


def play(platform, cache, sequence):
    """What the server shows after every rule of ``sequence``."""
    server = bare_server(platform, cache, max_impact_ratio=1.6,
                         cumulative_impact=True)
    tick, born, shown = 0, 0, []
    placed_this_tick = []
    for rule in sequence:
        kind = rule[0]
        if kind == "try_admit":
            _, app, required, preferred, priority, windows = rule
            spec = TenantSpec(
                name=f"t{born}", application=APPS[app],
                priority=priority, windows=windows, window_tasks=4,
                required_classes=required, preferred_classes=preferred)
            born += 1
            if server.try_admit(spec, tick).action == ADMIT:
                placed_this_tick.append(spec.name)
        elif kind == "step":
            server.step(tick)
            tick += 1
            del placed_this_tick[:]
        elif kind == "withdraw":
            live = [name for name, record in server.records.items()
                    if not record.done]
            if live:
                name = live[rule[1] % len(live)]
                server.withdraw(name, "generated", tick)
                if name in placed_this_tick:
                    placed_this_tick.remove(name)
        elif kind == "rescind":
            if placed_this_tick:
                server.rescind(placed_this_tick.pop(
                    rule[1] % len(placed_this_tick)))
        else:
            _, lasts, pu_class = rule
            server.inject_drift(ExternalLoad({pu_class: 0.9}, 24.0),
                                None if lasts is None else tick + lasts)
        shown.append((records(server), server.placement.partitions))
    return shown


@settings(max_examples=60, deadline=None, derandomize=True)
@given(sequence=rules)
def test_shipped_and_memo_off_twin_agree_after_every_rule(
        platform, warm_cache, sequence):
    with pytest.MonkeyPatch.context() as patch:
        # Evict after one drifted window, so short sequences reach the
        # eviction fallback.
        patch.setattr(server_module, "PATIENCE", 1)
        shipped = play(platform, warm_cache, sequence)
        with memos_off():
            twin = play(platform, warm_cache, sequence)
    for index, (ours, theirs) in enumerate(zip(shipped, twin)):
        assert ours == theirs, (index, sequence[index])
