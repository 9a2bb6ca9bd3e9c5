"""Multi-window SLO burn-rate alerting on the tick clock.

A single hard SLO threshold is either too twitchy (one bad window pages)
or too slow (a sustained slow bleed never crosses it).  The standard
answer is multi-window burn-rate alerting: track the fraction of the
error budget being consumed over a *fast* window (catches sharp
regressions quickly) and a *slow* window (suppresses blips), and alert
only when **both** burn faster than a threshold multiple of the budget.

This evaluator runs entirely on the deterministic tick clock - callers
feed it ``(good, bad)`` outcome counts per tick - so alert decisions,
and the :class:`BurnAlert` records that ride in reports, are
byte-identical across seeded runs.  Wall time never enters an alert
decision; the flow analysis registers ``BurnAlert`` as a taint sink to
keep it that way (see ``tests/flow_fixtures/bad_attribution.py``).

The traffic driver evaluates one key per tier against the tier's
attainment SLO.
"""

from __future__ import annotations

import threading
from collections import deque
from dataclasses import dataclass
from typing import Any, Deque, Dict, List, Optional, Tuple

from repro.errors import ReproError


@dataclass(frozen=True)
class BurnRateRule:
    """One fast/slow burn-rate alerting policy.

    Attributes:
        fast_window: Ticks in the fast (page-quickly) window.
        slow_window: Ticks in the slow (confirmation) window; also the
            retention bound per key.
        budget: Error budget as a bad-outcome fraction (e.g. 0.1 means
            up to 10% of windows may miss their SLO).
        threshold: Burn-rate multiple that fires the alert; both
            windows must burn at ``threshold`` times the budget rate.
    """

    fast_window: int = 6
    slow_window: int = 24
    budget: float = 0.1
    threshold: float = 2.0

    def __post_init__(self) -> None:
        if self.fast_window <= 0 or self.slow_window < self.fast_window:
            raise ReproError(
                "burn-rate windows must satisfy "
                f"0 < fast <= slow, got {self.fast_window}/"
                f"{self.slow_window}"
            )
        if not 0.0 < self.budget <= 1.0:
            raise ReproError(
                f"burn-rate budget must be in (0, 1], got {self.budget}"
            )
        if self.threshold <= 0.0:
            raise ReproError(
                f"burn-rate threshold must be positive, "
                f"got {self.threshold}"
            )


@dataclass(frozen=True)
class BurnAlert:
    """One burn-rate alert decision (a report-visible record)."""

    key: str
    tick: int
    fast_burn: float
    slow_burn: float
    threshold: float

    def to_dict(self) -> Dict[str, Any]:
        """The alert as a JSON-ready report record."""
        return {
            "key": self.key,
            "tick": self.tick,
            "fast_burn": round(self.fast_burn, 9),
            "slow_burn": round(self.slow_burn, 9),
            "threshold": round(self.threshold, 9),
        }


def _burn(samples: List[Tuple[int, int]], budget: float) -> float:
    """Burn rate over a sample window: bad-fraction over budget."""
    good = sum(g for g, _ in samples)
    bad = sum(b for _, b in samples)
    total = good + bad
    if total <= 0:
        return 0.0
    return (bad / total) / budget


class BurnRateEvaluator:
    """Per-key burn-rate state over bounded tick windows."""

    def __init__(self, rule: Optional[BurnRateRule] = None) -> None:
        self.rule = rule if rule is not None else BurnRateRule()
        self._lock = threading.Lock()
        self._windows: Dict[str, Deque[Tuple[int, int]]] = {}

    def observe(
        self, key: str, tick: int, good: int, bad: int
    ) -> Optional[BurnAlert]:
        """Fold one tick's outcomes for ``key``; returns an alert when
        both the fast and slow windows burn past the threshold.

        A burning key keeps returning an alert every burning tick.
        """
        rule = self.rule
        with self._lock:
            window = self._windows.get(key)
            if window is None:
                window = deque(maxlen=rule.slow_window)
                self._windows[key] = window
            window.append((good, bad))
            samples = list(window)
        fast = _burn(samples[-rule.fast_window:], rule.budget)
        slow = _burn(samples, rule.budget)
        if fast >= rule.threshold and slow >= rule.threshold:
            return BurnAlert(
                key=key,
                tick=tick,
                fast_burn=fast,
                slow_burn=slow,
                threshold=rule.threshold,
            )
        return None

    def burn_rates(self, key: str) -> Tuple[float, float]:
        """Current ``(fast, slow)`` burn rates for ``key`` (0 if unseen)."""
        rule = self.rule
        with self._lock:
            samples = list(self._windows.get(key, ()))
        return (
            _burn(samples[-rule.fast_window:], rule.budget),
            _burn(samples, rule.budget),
        )

    def keys(self) -> List[str]:
        """Every key with recorded samples, sorted."""
        with self._lock:
            return sorted(self._windows)
