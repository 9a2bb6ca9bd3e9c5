"""Blame decomposition: unit behaviour and the conservation property.

The acceptance bar for attribution is *conservation*: for every
simulated window, the per-(co-tenant, resource) blame shares plus the
model residual must sum exactly to the measured excess slowdown
(``slowdown - 1``), across seeds and both simulator engines - that is
what makes the BlameMatrix an attribution rather than a heuristic.
"""

import pytest

from repro.apps.synthetic import build_synthetic_application
from repro.obs.attribution import (
    BANDWIDTH,
    COMPUTE,
    BlameMatrix,
    BlameShare,
    ChunkLoad,
    decompose,
    steady_interval,
    top_offenders,
)
from repro.serve import TenantSpec
from repro.soc import get_platform
from repro.soc.interference import ExternalLoad
from tests.runtime import reference_engine
from tests.soaks import one_shard

SEEDS = (3, 7, 11)
ENGINES = ("vector", "reference")


@pytest.fixture(scope="module")
def platform():
    return get_platform("pixel7a")


def _chunks():
    # A two-chunk pipeline shape: one compute-lean, one memory-heavy.
    return (
        ChunkLoad(pu_class="big", overhead_s=1e-4, work_s=2e-3,
                  memory_boundedness=0.2, demand_gbps=1.5),
        ChunkLoad(pu_class="gpu", overhead_s=2e-4, work_s=3e-3,
                  memory_boundedness=0.7, demand_gbps=4.0),
    )


def _load(busy=None, demand=0.0):
    return ExternalLoad(busy=dict(busy or {}), demand_gbps=demand)


class TestSteadyInterval:
    def test_no_external_load_is_the_isolated_interval(self, platform):
        isolated = steady_interval(_chunks(), platform,
                                   ExternalLoad.none())
        assert isolated > 0.0

    def test_external_load_slows_the_interval(self, platform):
        isolated = steady_interval(_chunks(), platform,
                                   ExternalLoad.none())
        loaded = steady_interval(
            _chunks(), platform,
            _load(busy={"big": 1, "gpu": 1}, demand=8.0),
        )
        assert loaded > isolated

    def test_interval_is_deterministic(self, platform):
        load = _load(busy={"big": 0.8}, demand=6.0)
        assert (steady_interval(_chunks(), platform, load)
                == steady_interval(_chunks(), platform, load))


class TestDecompose:
    def test_shares_plus_residual_equal_excess(self, platform):
        sources = [
            ("tenant-a", _load(busy={"big": 1}, demand=2.0)),
            ("tenant-b", _load(busy={"gpu": 1}, demand=3.0)),
        ]
        blame = decompose(
            tenant="victim", window_index=0, slowdown=1.4,
            chunks=_chunks(), platform=platform, sources=sources,
        )
        assert isinstance(blame, BlameMatrix)
        total = sum(s.share for s in blame.shares) + blame.residual
        assert total == pytest.approx(0.4, abs=1e-12)

    def test_no_excess_means_no_shares(self, platform):
        sources = [("tenant-a", _load(busy={"big": 1}))]
        blame = decompose(
            tenant="victim", window_index=0, slowdown=1.0,
            chunks=_chunks(), platform=platform, sources=sources,
        )
        assert blame.shares == ()
        assert blame.residual == pytest.approx(0.0)

    def test_no_sources_puts_everything_in_residual(self, platform):
        blame = decompose(
            tenant="victim", window_index=2, slowdown=1.3,
            chunks=_chunks(), platform=platform, sources=[],
        )
        assert blame.shares == ()
        assert blame.residual == pytest.approx(0.3)

    def test_bandwidth_only_source_blamed_on_bandwidth(self, platform):
        sources = [("streamer", _load(demand=12.0))]
        blame = decompose(
            tenant="victim", window_index=0, slowdown=1.5,
            chunks=_chunks(), platform=platform, sources=sources,
        )
        resources = {s.resource for s in blame.shares}
        assert resources <= {BANDWIDTH}

    def test_to_dict_is_stable(self, platform):
        sources = [("tenant-a", _load(busy={"big": 1}, demand=2.0))]
        blame = decompose(
            tenant="victim", window_index=1, slowdown=1.2,
            chunks=_chunks(), platform=platform, sources=sources,
        )
        d = blame.to_dict()
        assert d["tenant"] == "victim"
        assert d["window"] == 1
        assert d == blame.to_dict()


class TestTopOffenders:
    def test_aggregates_and_ranks(self):
        matrices = [
            BlameMatrix(tenant="v", window_index=i, slowdown=1.2,
                        shares=(BlameShare("a", COMPUTE, 0.1),
                                BlameShare("b", BANDWIDTH, 0.05)),
                        residual=0.05)
            for i in range(3)
        ]
        ranked = top_offenders(matrices, k=2)
        assert [r["source"] for r in ranked] == ["a", "b"]
        assert ranked[0]["total_share"] == pytest.approx(0.3)
        assert ranked[0]["windows"] == 3

    def test_empty_input(self):
        assert top_offenders([], k=5) == []


def _serve_with_attribution(seed):
    _, server, _ = one_shard([TenantSpec(
        name=f"tenant-{index}",
        application=build_synthetic_application(
            seed=seed + index, stage_count=3,
        ),
        priority=1,
        windows=4,
        window_tasks=4,
    ) for index in range(3)], seed=seed, max_ticks=24, attribution=True)
    return server


class TestConservationProperty:
    """Attributed components sum to the measured excess, exactly."""

    @pytest.mark.parametrize("engine", ENGINES)
    @pytest.mark.parametrize("seed", SEEDS)
    def test_conservation_across_seeds_and_engines(self, seed, engine):
        with reference_engine.using(engine):
            server = _serve_with_attribution(seed)
        checked = 0
        for record in server.records.values():
            for window in record.history:
                if window.blame is None:
                    continue
                blame = window.blame
                excess = blame.slowdown - 1.0
                total = (sum(s.share for s in blame.shares)
                         + blame.residual)
                assert total == pytest.approx(excess, abs=1e-9)
                checked += 1
        assert checked > 0

    def test_blame_present_on_every_window(self):
        server = _serve_with_attribution(7)
        for record in server.records.values():
            assert record.history
            assert all(w.blame is not None for w in record.history)

    def test_blame_absent_when_attribution_off(self):
        _, server, report = one_shard([TenantSpec(
            name="solo",
            application=build_synthetic_application(
                seed=7, stage_count=2,
            ),
            priority=1, windows=2, window_tasks=4,
        )], max_ticks=12)
        assert "attribution" not in report.to_dict()
        for record in server.records.values():
            assert all(w.blame is None for w in record.history)
