"""Multi-window burn-rate alerting on the tick clock."""

import pytest

from repro.errors import ReproError
from repro.obs.alerts import BurnAlert, BurnRateEvaluator, BurnRateRule


class TestRuleValidation:
    def test_defaults_are_valid(self):
        rule = BurnRateRule()
        assert rule.fast_window < rule.slow_window

    def test_fast_window_must_be_positive(self):
        with pytest.raises(ReproError, match="fast <= slow"):
            BurnRateRule(fast_window=0)

    def test_slow_window_must_dominate_fast(self):
        with pytest.raises(ReproError, match="fast <= slow"):
            BurnRateRule(fast_window=8, slow_window=4)

    def test_budget_bounds(self):
        with pytest.raises(ReproError, match="budget"):
            BurnRateRule(budget=0.0)
        with pytest.raises(ReproError, match="budget"):
            BurnRateRule(budget=1.5)

    def test_threshold_must_be_positive(self):
        with pytest.raises(ReproError, match="threshold"):
            BurnRateRule(threshold=0.0)


class TestEvaluator:
    RULE = BurnRateRule(fast_window=3, slow_window=6, budget=0.1,
                        threshold=2.0)

    def test_all_good_never_alerts(self):
        ev = BurnRateEvaluator(self.RULE)
        for tick in range(12):
            assert ev.observe("k", tick, good=5, bad=0) is None

    def test_sustained_badness_alerts(self):
        ev = BurnRateEvaluator(self.RULE)
        alerts = [ev.observe("k", tick, good=0, bad=5)
                  for tick in range(6)]
        fired = [a for a in alerts if a is not None]
        assert fired
        alert = fired[0]
        assert isinstance(alert, BurnAlert)
        assert alert.fast_burn >= self.RULE.threshold
        assert alert.slow_burn >= self.RULE.threshold

    def test_single_bad_tick_does_not_page(self):
        # The slow window suppresses blips: one bad tick among good
        # ones burns the fast window but not the slow one.
        ev = BurnRateEvaluator(self.RULE)
        for tick in range(5):
            assert ev.observe("k", tick, good=10, bad=0) is None
        assert ev.observe("k", 5, good=0, bad=3) is None

    def test_alert_is_level_triggered(self):
        ev = BurnRateEvaluator(self.RULE)
        for tick in range(6):
            ev.observe("k", tick, good=0, bad=5)
        assert ev.observe("k", 6, good=0, bad=5) is not None
        assert ev.observe("k", 7, good=0, bad=5) is not None

    def test_keys_are_sorted(self):
        ev = BurnRateEvaluator(self.RULE)
        ev.observe("z", 0, 1, 0)
        ev.observe("a", 0, 1, 0)
        assert ev.keys() == ["a", "z"]

    def test_independent_keys(self):
        ev = BurnRateEvaluator(self.RULE)
        for tick in range(6):
            ev.observe("burning", tick, good=0, bad=5)
            assert ev.observe("healthy", tick, good=5, bad=0) is None
        fast, slow = ev.burn_rates("burning")
        assert fast >= self.RULE.threshold
        assert ev.burn_rates("healthy") == (0.0, 0.0)

    def test_deterministic_replay(self):
        feed = [(0, 5), (2, 3), (0, 5), (5, 0), (1, 4), (0, 5)]

        def run():
            ev = BurnRateEvaluator(self.RULE)
            out = []
            for tick, (good, bad) in enumerate(feed):
                alert = ev.observe("k", tick, good, bad)
                out.append(None if alert is None else alert.to_dict())
            return out

        assert run() == run()

    def test_alert_to_dict_rounds(self):
        alert = BurnAlert(key="k", tick=3, fast_burn=1.23456789012,
                          slow_burn=2.0, threshold=2.0)
        d = alert.to_dict()
        assert d["fast_burn"] == 1.23456789
        assert d["key"] == "k"
        assert d["tick"] == 3
