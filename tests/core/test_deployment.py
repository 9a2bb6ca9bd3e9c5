"""Tests for rate-constrained, energy-optimal deployment selection."""

import pytest

import repro.core.deployment as deployment
from repro.apps import build_octree_application
from repro.core import select_for_rate
from repro.core.optimizer import BTOptimizer
from repro.core.profiler import BTProfiler
from repro.errors import SchedulingError
from repro.soc import get_platform


@pytest.fixture(scope="module")
def setting():
    platform = get_platform("pixel7a")
    app = build_octree_application(n_points=20_000)
    table = BTProfiler(platform, repetitions=3).profile(app)
    optimization = BTOptimizer(
        app, table.restricted(platform.schedulable_classes()), k=8
    ).optimize()
    return app, platform, optimization


class TestSelection:
    @pytest.fixture(autouse=True)
    def short_trials(self, monkeypatch):
        monkeypatch.setattr(deployment, "RATE_TRIAL_TASKS", 15)

    def test_slack_rate_picks_energy_not_latency(self, setting):
        """Well below saturation every candidate keeps up, so the
        selection criterion flips from latency to energy."""
        app, platform, optimization = setting
        choice = select_for_rate(app, platform, optimization,
                                 rate_hz=50.0)
        assert choice.meets_rate
        assert all(trial.keeps_up for trial in choice.trials)
        best_energy = min(
            trial.energy_per_task_j for trial in choice.trials
        )
        assert choice.selected_trial.energy_per_task_j == pytest.approx(
            best_energy
        )

    def test_impossible_rate_falls_back_to_fastest(self, setting):
        app, platform, optimization = setting
        choice = select_for_rate(app, platform, optimization,
                                 rate_hz=1e7)
        assert not choice.meets_rate
        fastest = min(
            trial.worst_latency_s for trial in choice.trials
        )
        assert choice.selected_trial.worst_latency_s == pytest.approx(
            fastest
        )

    def test_moderate_rate_filters_slow_candidates(self, setting):
        """Near the fastest candidate's saturation point, only a subset
        keeps up - the selection must come from that subset."""
        app, platform, optimization = setting
        # Probe: fastest candidate's backlogged rate.
        probe = select_for_rate(app, platform, optimization,
                                rate_hz=50.0)
        fastest_latency = min(
            trial.worst_latency_s for trial in probe.trials
        )
        rate = 0.8 / fastest_latency
        choice = select_for_rate(app, platform, optimization,
                                 rate_hz=rate)
        if choice.meets_rate:
            assert choice.selected_trial.keeps_up

    def test_accepts_plain_candidate_list(self, setting):
        app, platform, optimization = setting
        choice = select_for_rate(
            app, platform, optimization.candidates[:3],
            rate_hz=50.0,
        )
        assert len(choice.trials) == 3

    def test_validation(self, setting):
        app, platform, optimization = setting
        with pytest.raises(SchedulingError):
            select_for_rate(app, platform, optimization, rate_hz=0.0)
        with pytest.raises(SchedulingError):
            select_for_rate(app, platform, [], rate_hz=10.0)

    def test_deterministic(self, setting):
        app, platform, optimization = setting
        a = select_for_rate(app, platform, optimization, rate_hz=100.0)
        b = select_for_rate(app, platform, optimization, rate_hz=100.0)
        assert (a.selected.schedule.assignments
                == b.selected.schedule.assignments)
