"""Tests for the interference model (DVFS curves + bandwidth contention)."""

import pytest

from repro.errors import PlatformError
from repro.soc import DvfsCurve, InterferenceModel
from repro.soc.interference import ExternalLoad, external_co_load
from repro.soc.pu import BIG, GPU, LITTLE, MEDIUM


@pytest.fixture
def model():
    return InterferenceModel(
        dram_bw_gbps=30.0,
        dvfs={
            BIG: DvfsCurve(speed_at_full_load=0.74),
            LITTLE: DvfsCurve(speed_at_full_load=1.6),
            GPU: DvfsCurve(speed_at_full_load=1.45),
        },
    )


class TestDvfsCurve:
    def test_isolated_is_unit_speed(self):
        assert DvfsCurve(0.7).speed(0.0) == pytest.approx(1.0)

    def test_full_load_hits_endpoint(self):
        assert DvfsCurve(0.7).speed(1.0) == pytest.approx(0.7)

    def test_interpolates_linearly(self):
        assert DvfsCurve(0.6).speed(0.5) == pytest.approx(0.8)

    def test_boost_curve(self):
        assert DvfsCurve(1.6).speed(1.0) == pytest.approx(1.6)

    def test_rejects_bad_co_load(self):
        with pytest.raises(PlatformError):
            DvfsCurve(0.7).speed(1.5)


class TestBandwidthSharing:
    def test_undersubscribed_full_bandwidth(self, model):
        assert model.bandwidth_factor(10.0, 25.0) == pytest.approx(1.0)

    def test_oversubscribed_proportional(self, model):
        # Total demand 60 against 30 GB/s -> everyone gets half.
        assert model.bandwidth_factor(20.0, 60.0) == pytest.approx(0.5)

    def test_zero_demand_unaffected(self, model):
        assert model.bandwidth_factor(0.0, 100.0) == pytest.approx(1.0)

    def test_rejects_nonpositive_dram_bw(self):
        with pytest.raises(PlatformError):
            InterferenceModel(dram_bw_gbps=0.0)


class TestSpeedMultiplier:
    def test_isolated_compute_bound_is_unit(self, model):
        m = model.speed_multiplier(
            BIG, memory_boundedness=0.0, demand_gbps=1.0,
            total_demand_gbps=1.0, co_load=0.0,
        )
        assert m == pytest.approx(1.0)

    def test_compute_bound_tracks_dvfs(self, model):
        m = model.speed_multiplier(
            BIG, memory_boundedness=0.0, demand_gbps=1.0,
            total_demand_gbps=1.0, co_load=1.0,
        )
        assert m == pytest.approx(0.74)

    def test_memory_bound_tracks_bandwidth_share(self, model):
        m = model.speed_multiplier(
            BIG, memory_boundedness=1.0, demand_gbps=20.0,
            total_demand_gbps=60.0, co_load=1.0,
        )
        assert m == pytest.approx(0.5)

    def test_mixed_harmonic_combination(self, model):
        m = model.speed_multiplier(
            BIG, memory_boundedness=0.5, demand_gbps=20.0,
            total_demand_gbps=60.0, co_load=1.0,
        )
        expected = 1.0 / (0.5 / 0.74 + 0.5 / 0.5)
        assert m == pytest.approx(expected)

    def test_boosted_pu_speeds_up_under_load(self, model):
        m = model.speed_multiplier(
            GPU, memory_boundedness=0.0, demand_gbps=1.0,
            total_demand_gbps=1.0, co_load=1.0,
        )
        assert m == pytest.approx(1.45)

    def test_boost_fights_contention(self, model):
        # A boosted GPU that is memory-bound can still end up slower.
        m = model.speed_multiplier(
            GPU, memory_boundedness=0.9, demand_gbps=20.0,
            total_demand_gbps=90.0, co_load=1.0,
        )
        assert m < 1.0

    def test_unknown_class_defaults_to_no_dvfs(self, model):
        m = model.speed_multiplier(
            "npu", memory_boundedness=0.0, demand_gbps=0.0,
            total_demand_gbps=0.0, co_load=1.0,
        )
        assert m == pytest.approx(1.0)

    def test_rejects_bad_memory_boundedness(self, model):
        with pytest.raises(PlatformError):
            model.speed_multiplier(BIG, 1.5, 1.0, 1.0, 0.0)


class TestCoLoadFraction:
    """The DVFS co-load: the fraction of the *other* PU classes busy."""

    def test_isolated(self):
        assert external_co_load(set(), "big", None, 3) == 0.0

    def test_interference_heavy(self):
        busy = {"big", "medium", "little", "gpu"}
        assert external_co_load(busy, "big", None, 3) == 1.0

    def test_partial(self):
        assert external_co_load({"big", "gpu"}, "big", None, 4) == (
            pytest.approx(0.25))

    def test_no_other_pus(self):
        assert external_co_load({"big"}, "big", None, 0) == 0.0


class TestExternalLoadKey:
    """``ExternalLoad`` is frozen but holds a dict, so it cannot be
    hashed; ``key`` is the value everything keyed on a load uses."""

    def test_the_dataclass_itself_is_unhashable(self):
        with pytest.raises(TypeError):
            hash(ExternalLoad(busy={BIG: 0.5}))

    def test_insertion_order_does_not_matter(self):
        one = ExternalLoad(busy={BIG: 0.5, GPU: 0.25, LITTLE: 0.1},
                           demand_gbps=2.0)
        other = ExternalLoad(busy={LITTLE: 0.1, GPU: 0.25, BIG: 0.5},
                             demand_gbps=2.0)
        assert one.key == other.key
        assert hash(one.key) == hash(other.key)
        assert {one.key: "hit"}[other.key] == "hit"

    def test_computed_once(self):
        load = ExternalLoad(busy={BIG: 0.5})
        assert load.key is load.key

    def test_combined_reproduces_it(self):
        sources = [ExternalLoad(busy={BIG: 0.4}, demand_gbps=1.5),
                   ExternalLoad(busy={GPU: 0.3, BIG: 0.2}),
                   None,
                   ExternalLoad(demand_gbps=0.25)]
        assert (ExternalLoad.combined(sources).key
                == ExternalLoad.combined(list(sources)).key)

    @pytest.mark.parametrize("other", [
        ExternalLoad(busy={BIG: 0.5, GPU: 0.25}, demand_gbps=2.5),
        ExternalLoad(busy={BIG: 0.5, GPU: 0.26}, demand_gbps=2.0),
        ExternalLoad(busy={BIG: 0.5}, demand_gbps=2.0),
        ExternalLoad(busy={BIG: 0.5, LITTLE: 0.25}, demand_gbps=2.0),
        ExternalLoad(busy={BIG: 0.5, GPU: 0.25}),
    ], ids=["demand", "fraction", "missing-class", "other-class",
            "no-demand"])
    def test_any_difference_changes_it(self, other):
        base = ExternalLoad(busy={BIG: 0.5, GPU: 0.25}, demand_gbps=2.0)
        assert base.key != other.key

    def test_conservative_on_zero_fractions(self):
        # A zero-fraction entry changes no rate but does change the
        # key: a memo keyed on it misses, it never hits wrongly.
        assert (ExternalLoad(busy={BIG: 0.5, GPU: 0.0}).key
                != ExternalLoad(busy={BIG: 0.5}).key)

    def test_equal_keys_give_bit_equal_co_load(self):
        # Float addition is not associative; the DVFS co-load sums in
        # key order so that equal loads cannot disagree in the last ulp.
        fractions = {BIG: 0.1, GPU: 0.2, MEDIUM: 0.3}
        orders = [
            (BIG, GPU, MEDIUM), (MEDIUM, GPU, BIG), (GPU, MEDIUM, BIG),
        ]
        values = {
            external_co_load(
                set(), LITTLE,
                ExternalLoad(busy={c: fractions[c] for c in order}), 3,
            )
            for order in orders
        }
        assert len(values) == 1
