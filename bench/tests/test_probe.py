"""The speed probe: the calibrated clock's arithmetic, and a live run."""

import signal

import pytest

from bench.probe import Calibration, Prober, now


def test_calibrated_time_discounts_slow_stretches_and_skips_probes():
    # Probes of 0.1 s (the reference), 0.2 s and 0.1 s.
    clock = Calibration(origin=0.0, starts=[1.0, 2.0, 4.0],
                        ends=[1.1, 2.2, 4.1], reference=0.1)
    # Before the first probe: its factor (1.0) speaks for the stretch.
    assert clock.at(0.5) == pytest.approx(0.5)
    # Flat across a probe.
    assert clock.between(1.0, 1.1) == pytest.approx(0.0)
    # Between probes of 0.1 and 0.2 s the core ran at 1/1.5 speed.
    assert clock.between(1.1, 2.0) == pytest.approx(0.9 / 1.5)
    assert clock.between(1.1, 1.55) == pytest.approx(0.45 / 1.5)
    assert clock.between(2.2, 4.0) == pytest.approx(1.8 / 1.5)
    assert clock.at(4.1) == pytest.approx(1.0 + 0.6 + 1.2)
    with pytest.raises(ValueError):
        clock.at(4.2)


def test_a_probe_faster_than_the_reference_never_beats_the_wall():
    clock = Calibration(origin=0.0, starts=[1.0, 2.0], ends=[1.05, 2.05],
                        reference=0.1)
    assert clock.between(1.05, 2.0) == pytest.approx(0.95)


def test_prober_samples_on_a_timer_and_restores_the_handler():
    prober = Prober(origin=now())
    prober.start()
    started = now()
    while now() - started < 0.06:
        pass
    ended = now()
    prober.stop()
    assert signal.getsignal(signal.SIGALRM) is signal.SIG_DFL
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    # start() and stop() bracket; the timer fired in between.
    assert len(prober.starts) >= 6
    assert all(a <= b for a, b in zip(prober.starts, prober.ends))
    assert all(e <= s for e, s in zip(prober.ends, prober.starts[1:]))
    clock = prober.calibration(prober.reference())
    assert 0.0 < clock.between(started, ended) <= ended - started
