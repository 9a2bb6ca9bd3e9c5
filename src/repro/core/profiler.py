"""BT-Profiler (paper section 3.2): interference-aware black-box profiling.

Profiles every stage on every PU class and aggregates mean latencies into
a 2-D :class:`ProfilingTable` (rows: stages, columns: PUs).  Two execution
modes, exactly as the paper defines them:

* ``isolated`` - the stage runs alone on its PU; nothing else executes.
  This is how prior work builds its (miscomposing) models.
* ``interference`` - while the stage runs on the measuring PU, *all other
  PUs concurrently execute the same computation* (their own kernel variant
  of the same stage), simulating realistic intra-application interference.
  Only the measuring PU's latency is recorded.

The profiler is strictly black-box: it asks the platform to *run and
time* kernels (here: the virtual SoC's ground-truth oracle plus timer
noise) and never inspects cost-model internals - it imports nothing
from ``repro.soc.cost_model`` / ``repro.soc.interference`` and sees
seconds only.  Each entry averages ``repetitions`` noisy measurements
(30 in the paper).  A profile is one pass: each stage is put to the
platform once (:meth:`Platform.profiling_times`: both conditions, every
PU), every cell of the pass is timed in one :meth:`Platform.measure_cells`
call, and every cell, whoever asks, goes through :meth:`BTProfiler._cell`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import (TYPE_CHECKING, Dict, Iterable, List, Mapping, Optional,
                    Tuple)

from repro.errors import ProfilingError
from repro.obs.metrics import metrics
from repro.obs.tracer import tracer
from repro.soc.platform import Platform
from repro.soc.timer import mean_of_measurements
from repro.stage import Application

if TYPE_CHECKING:
    from repro.core.session import CampaignSession

ISOLATED = "isolated"
INTERFERENCE = "interference"
MODES = (ISOLATED, INTERFERENCE)


@dataclass(frozen=True)
class ProfilingTable:
    """Stage x PU mean-latency table (seconds).

    Attributes:
        application: Application name the table describes.
        platform: Platform name it was collected on.
        mode: ``isolated`` or ``interference``.
        entries: (stage name, pu class) -> mean latency in seconds.
        stage_names: Row order.
        pu_classes: Column order.
        stddevs: Optional (stage, pu) -> sample standard deviation of the
            repeated measurements; empty when unavailable (e.g. loaded
            from an artifact that predates it).
    """

    application: str
    platform: str
    mode: str
    entries: Mapping[Tuple[str, str], float]
    stage_names: Tuple[str, ...]
    pu_classes: Tuple[str, ...]
    stddevs: Mapping[Tuple[str, str], float] = field(default_factory=dict)

    def latency(self, stage: str, pu_class: str) -> float:
        """Mean latency of ``stage`` on ``pu_class`` in seconds."""
        try:
            return self.entries[(stage, pu_class)]
        except KeyError:
            raise ProfilingError(
                f"no profile entry for stage {stage!r} on {pu_class!r}"
            ) from None

    def stddev(self, stage: str, pu_class: str) -> float:
        """Sample standard deviation of the entry's measurements (0.0
        when statistics were not collected)."""
        return self.stddevs.get((stage, pu_class), 0.0)

    def row(self, stage: str) -> Dict[str, float]:
        """All PU latencies for one stage."""
        return {pu: self.latency(stage, pu) for pu in self.pu_classes}

    def column(self, pu_class: str) -> Dict[str, float]:
        """All stage latencies on one PU class."""
        return {s: self.latency(s, pu_class) for s in self.stage_names}

    def best_pu(self, stage: str) -> str:
        """The PU class with the lowest profiled latency for a stage."""
        return min(self.pu_classes, key=lambda pu: self.latency(stage, pu))

    def restricted(self, pu_classes: Iterable[str]) -> "ProfilingTable":
        """A sub-table over a subset of PU columns (used to drop
        unpinnable clusters before optimization)."""
        wanted = set(pu_classes)
        keep = tuple(pu for pu in self.pu_classes if pu in wanted)
        if not keep:
            raise ProfilingError("restriction removes every PU column")
        entries = {
            (stage, pu): self.entries[(stage, pu)]
            for stage in self.stage_names
            for pu in keep
        }
        stddevs = {
            key: value
            for key, value in self.stddevs.items()
            if key[1] in keep
        }
        return ProfilingTable(
            application=self.application,
            platform=self.platform,
            mode=self.mode,
            entries=entries,
            stage_names=self.stage_names,
            pu_classes=keep,
            stddevs=stddevs,
        )

    def to_rows(self) -> List[List[str]]:
        """Render as a text table (stage rows, PU columns, milliseconds)."""
        header = ["stage"] + [str(pu) for pu in self.pu_classes]
        rows = [header]
        for stage in self.stage_names:
            rows.append(
                [stage]
                + [f"{self.latency(stage, pu) * 1e3:.3f}"
                   for pu in self.pu_classes]
            )
        return rows


@dataclass
class BTProfiler:
    """Collects profiling tables on a (virtual) platform.

    Args:
        platform: The target system (Fig. 2 input 2).
        repetitions: Timed repetitions per entry (paper: 30).
    """

    platform: Platform
    repetitions: int = 30

    def __post_init__(self) -> None:
        if self.repetitions < 1:
            raise ProfilingError("repetitions must be >= 1")

    # ------------------------------------------------------------------
    def profile(self, application: Application, mode: str = INTERFERENCE,
                session: Optional[CampaignSession] = None) -> ProfilingTable:
        """Build the full stage x PU table in the given mode (cell by
        cell through ``session``'s checkpoints when one is given)."""
        return self._profile(application, (_checked(mode),), session)[0]

    def profile_both(
        self, application: Application
    ) -> Tuple[ProfilingTable, ProfilingTable]:
        """The (isolated, interference) pair a plan is built from (and
        Fig. 7 plots), from one pass over the platform: each stage is
        run on each PU once and timed under both conditions."""
        return tuple(self._profile(application, MODES))

    def _profile(self, application: Application, modes: Tuple[str, ...],
                 session: Optional[CampaignSession] = None
                 ) -> List[ProfilingTable]:
        pu_classes = self.platform.pu_classes()
        truth = [
            self.platform.profiling_times(stage.work)
            for stage in application.stages
        ]
        # Every cell of the pass, in table order, timed in one call.
        drawn = iter(self.platform.measure_cells(
            [(times[pu_class][MODES.index(mode)],
              ("profile", application.name, stage.name, pu_class, mode))
             for mode in modes
             for stage, times in zip(application.stages, truth)
             for pu_class in pu_classes],
            self.repetitions,
        ))
        tables = []
        for mode in modes:
            entries: Dict[Tuple[str, str], float] = {}
            stddevs: Dict[Tuple[str, str], float] = {}
            with tracer().span("profiler.profile", "profiler",
                               application=application.name, mode=mode):
                for stage in application.stage_names:
                    for pu_class in pu_classes:
                        key = (stage, pu_class)
                        cell = (stage, pu_class, mode, next(drawn))
                        entries[key], stddevs[key] = (
                            self._cell(*cell) if session is None else
                            session.cell(self._cell, application.name, *cell))
            tables.append(ProfilingTable(
                application=application.name,
                platform=self.platform.name,
                mode=mode,
                entries=entries,
                stage_names=application.stage_names,
                pu_classes=pu_classes,
                stddevs=stddevs,
            ))
        return tables

    def _cell(self, stage_name: str, pu_class: str, mode: str,
              samples: List[float]) -> Tuple[float, float]:
        """The one cell routine: the cell's ``repetitions`` timer
        observations, averaged."""
        with tracer().span("profiler.cell", "profiler",
                           stage=stage_name, pu=pu_class, mode=mode):
            mean = mean_of_measurements(samples)
            std = 0.0
            if len(samples) >= 2:
                std = (sum((x - mean) ** 2 for x in samples)
                       / (len(samples) - 1)) ** 0.5
        reg = metrics()
        if reg.enabled:
            reg.counter("profiler.cells")
            reg.observe("profiler.cell_mean_s", mean)
        return mean, std


def _checked(mode: str) -> str:
    if mode not in MODES:
        raise ProfilingError(
            f"unknown profiling mode {mode!r}; expected one of {MODES}"
        )
    return mode


def interference_ratios(
    isolated: ProfilingTable, interference: ProfilingTable
) -> Dict[str, float]:
    """Average interference-heavy / isolated latency ratio per PU class
    (the quantity Fig. 7 plots; > 1 is a slowdown under contention)."""
    if isolated.stage_names != interference.stage_names:
        raise ProfilingError("tables cover different stages")
    if isolated.pu_classes != interference.pu_classes:
        raise ProfilingError("tables cover different PUs")
    ratios: Dict[str, float] = {}
    for pu_class in isolated.pu_classes:
        per_stage = [
            interference.latency(stage, pu_class)
            / isolated.latency(stage, pu_class)
            for stage in isolated.stage_names
        ]
        ratios[pu_class] = sum(per_stage) / len(per_stage)
    return ratios
