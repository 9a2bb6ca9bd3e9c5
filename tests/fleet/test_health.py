"""Health classification and the admission circuit breaker.

Everything here runs on the logical tick clock: state transitions are
driven by heartbeat *counts* and window latency ratios, never wall
time, so these tests feed the monitor synthetic beats directly.
"""

import pytest

from repro.errors import FleetError
from repro.fleet import health
from repro.fleet.health import (
    CLOSED,
    DEAD,
    DEGRADED,
    HALF_OPEN,
    HEALTHY,
    OPEN,
    RECOVERING,
    SHARD_STATE_CODES,
    CircuitBreaker,
    HealthConfig,
    HealthMonitor,
)


@pytest.fixture
def monitor():
    monitor = HealthMonitor(HealthConfig(slo_factor=2.0,
                                         slo_breach_ticks=3))
    monitor.register("s")
    return monitor


class TestHeartbeatClassification:
    def test_beating_shard_stays_healthy(self, monitor):
        for tick in range(1, 6):
            assert monitor.assess("s", beats=tick, crashed=False) is None
        assert monitor.state("s") == HEALTHY

    def test_gray_failure_degrades_then_dies(self, monitor):
        # The gray pattern: beats freeze while the shard keeps serving.
        monitor.assess("s", beats=5, crashed=False)
        assert monitor.assess("s", beats=5, crashed=False) is None
        transition = monitor.assess("s", beats=5, crashed=False)
        assert transition == (HEALTHY, DEGRADED)
        assert monitor.assess("s", beats=5, crashed=False) is None
        transition = monitor.assess("s", beats=5, crashed=False)
        assert transition == (DEGRADED, DEAD)

    def test_crash_is_immediately_dead(self, monitor):
        assert (monitor.assess("s", beats=1, crashed=True)
                == (HEALTHY, DEAD))

    def test_dead_shard_recovers_only_on_beats(self, monitor):
        monitor.assess("s", beats=1, crashed=True)
        # Still crashed, still dead.
        assert monitor.assess("s", beats=1, crashed=True) is None
        # Alive again but not yet beating: stays dead.
        assert monitor.assess("s", beats=1, crashed=False) is None
        # Beats resume -> recovering, which then holds until the
        # breaker closes (an external set_state).
        assert (monitor.assess("s", beats=2, crashed=False)
                == (DEAD, RECOVERING))
        assert monitor.assess("s", beats=3, crashed=False) is None
        assert monitor.state("s") == RECOVERING
        monitor.set_state("s", HEALTHY)
        assert monitor.state("s") == HEALTHY

    def test_missed_beats_reset_on_resumption(self, monitor):
        monitor.assess("s", beats=1, crashed=False)
        monitor.assess("s", beats=1, crashed=False)  # miss 1
        monitor.assess("s", beats=2, crashed=False)  # beat again
        # The degraded counter restarted; one more miss is not enough.
        assert monitor.assess("s", beats=2, crashed=False) is None
        assert monitor.state("s") == HEALTHY


class TestRelativeSlo:
    def test_first_window_sets_the_baseline(self, monitor):
        assert monitor.note_window("s", "t", 0.010) == 1.0
        assert monitor.note_window("s", "t", 0.025) == pytest.approx(2.5)

    def test_sustained_breach_flags_the_shard(self, monitor):
        monitor.note_window("s", "t", 0.010)
        monitor.assess("s", beats=1, crashed=False)
        for tick in range(2, 5):
            monitor.note_window("s", "t", 0.030)  # 3x baseline
            monitor.assess("s", beats=tick, crashed=False)
        assert monitor.slo_breached("s")
        assert monitor.state("s") == DEGRADED

    def test_a_one_tick_rule_trips_on_one_breaching_tick(self):
        monitor = HealthMonitor(HealthConfig(slo_factor=2.0,
                                             slo_breach_ticks=1))
        monitor.register("s")
        monitor.note_window("s", "t", 0.010)
        monitor.assess("s", beats=1, crashed=False)
        assert not monitor.slo_breached("s")
        monitor.note_window("s", "t", 0.030)  # 3x baseline, once
        monitor.assess("s", beats=2, crashed=False)
        assert monitor.slo_breached("s")

    def test_single_spike_is_forgiven(self, monitor):
        monitor.note_window("s", "t", 0.010)
        monitor.assess("s", beats=1, crashed=False)
        monitor.note_window("s", "t", 0.030)
        monitor.assess("s", beats=2, crashed=False)
        monitor.note_window("s", "t", 0.011)  # back to normal
        monitor.assess("s", beats=3, crashed=False)
        assert not monitor.slo_breached("s")

    def test_streak_holds_when_no_windows_serve(self, monitor):
        monitor.note_window("s", "t", 0.010)
        monitor.assess("s", beats=1, crashed=False)
        for tick in range(2, 5):
            monitor.note_window("s", "t", 0.030)
            monitor.assess("s", beats=tick, crashed=False)
        # Serving nothing must not launder the breach away.
        monitor.assess("s", beats=5, crashed=False)
        assert monitor.slo_breached("s")
        monitor.reset_slo("s")
        assert not monitor.slo_breached("s")

    def test_forget_tenant_drops_the_baseline(self, monitor):
        monitor.note_window("s", "t", 0.010)
        monitor.forget_tenant("s", "t")
        # Re-noting starts a fresh baseline, ratio 1.0 again.
        assert monitor.note_window("s", "t", 0.030) == 1.0


class TestMonitorRegistry:
    def test_unknown_shard_rejected(self, monitor):
        with pytest.raises(FleetError, match="unknown shard"):
            monitor.state("ghost")

    def test_duplicate_registration_rejected(self, monitor):
        with pytest.raises(FleetError, match="already registered"):
            monitor.register("s")

    def test_unknown_state_rejected(self, monitor):
        with pytest.raises(FleetError, match="unknown shard state"):
            monitor.set_state("s", "zombie")

    def test_state_codes_cover_all_states(self):
        assert set(SHARD_STATE_CODES) == {
            HEALTHY, DEGRADED, RECOVERING, DEAD,
        }


class TestCircuitBreaker:
    @pytest.fixture(autouse=True)
    def every_half_open_tick_probes(self, monkeypatch):
        # Cooldown 3 as shipped; every half-open tick a probe window and
        # two healthy ones close the breaker, so each step is visible.
        monkeypatch.setattr(health, "PROBE_PROBABILITY", 1.0)
        monkeypatch.setattr(health, "PROBE_TICKS", 2)

    def test_full_cycle_closed_open_half_open_closed(self):
        breaker = CircuitBreaker("s", seed=1)
        assert breaker.state == CLOSED
        assert breaker.allows_placement()
        assert breaker.trip(tick=5) == (CLOSED, OPEN)
        assert not breaker.allows_placement()
        # Cooldown not elapsed: stays open even while beating.
        assert breaker.advance(tick=6, beating=True) is None
        assert breaker.advance(tick=7, beating=True) is None
        assert breaker.advance(tick=8, beating=True) == (OPEN, HALF_OPEN)
        # Every half-open tick is a probe window (patched above).
        assert breaker.allows_placement()
        # Two healthy ticks close it: one is not enough.
        assert breaker.advance(tick=9, beating=True) is None
        assert breaker.advance(tick=10, beating=True) == (HALF_OPEN,
                                                          CLOSED)
        assert breaker.allows_placement()
        assert breaker.transitions == 3

    def test_open_waits_for_beats_not_just_cooldown(self):
        breaker = CircuitBreaker("s", seed=1)
        breaker.trip(tick=0)
        for tick in range(1, 8):
            assert breaker.advance(tick, beating=False) is None
        assert breaker.state == OPEN

    def test_half_open_relapse_reopens_and_rearms_cooldown(self):
        breaker = CircuitBreaker("s", seed=1)
        breaker.trip(tick=0)
        assert breaker.advance(3, beating=True) == (OPEN, HALF_OPEN)
        assert breaker.advance(4, beating=False) == (HALF_OPEN, OPEN)
        # The cooldown restarted at the relapse tick.
        assert breaker.advance(5, beating=True) is None
        assert breaker.advance(6, beating=True) is None
        assert breaker.advance(7, beating=True) == (OPEN, HALF_OPEN)

    def test_double_trip_is_idempotent(self):
        breaker = CircuitBreaker("s", seed=1)
        assert breaker.trip(0) == (CLOSED, OPEN)
        assert breaker.trip(1) is None
        assert breaker.transitions == 1

    def test_probe_windows_are_seeded_and_deterministic(self,
                                                        monkeypatch):
        monkeypatch.setattr(health, "PROBE_PROBABILITY", 0.5)
        monkeypatch.setattr(health, "PROBE_TICKS", 8)

        def windows(seed):
            breaker = CircuitBreaker("s", seed=seed)
            breaker.trip(0)
            breaker.advance(3, beating=True)  # -> half-open
            out = [breaker.allows_placement()]
            for tick in range(4, 10):
                if breaker.advance(tick, beating=True) is not None:
                    break
                out.append(breaker.allows_placement())
            return out

        assert windows(seed=11) == windows(seed=11)
        # Some seed pair must disagree somewhere; fixed seeds chosen so
        # this stays a real assertion, not a coin flip.
        assert windows(seed=11) != windows(seed=17)
