"""Durable campaigns: checkpoint/resume for the end-to-end BT flow.

A full BetterTogether campaign (profile -> optimize -> autotune) takes
~6 minutes per device per application on real hardware (paper section
3.2).  Out of the box it is all-or-nothing: a crash mid-profiling, a
wedged dispatcher or a power loss discards everything collected so far.
:class:`CampaignSession` makes the campaign restartable by checkpointing
every *unit of work* to a session directory as it completes:

* one file per (stage, PU, mode) **profiling cell**,
* the **optimization** candidate log,
* one file per **autotune measurement** (candidate rank),
* the final deployed **schedule**.

Re-running the same session (``python -m repro run --resume <dir>``)
reuses every valid checkpoint and re-executes only the incomplete units.
Because each unit's measurement RNG is keyed by its coordinates alone
(not by collection order), a resumed campaign produces artifacts that
are **byte-identical** to an uninterrupted run's.

All persistence goes through :mod:`repro.serialization`'s atomic,
SHA-256-checksummed writers, so a unit is either fully present and
trustworthy or treated as never written; a corrupted checkpoint is
detected on load, reported, and its unit re-run instead of aborting the
campaign.

Layout of a session directory::

    manifest.json                        campaign identity + parameters
    profiling/<mode>/<stage>__<pu>.json  one cell per (stage, PU, mode)
    optimization.json                    the full candidate log
    autotune/cand_NNN.json               one measurement per candidate
    schedule.json                        the deployed (measured best) schedule
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.core.autotuner import AutotuneEntry, AutotuneResult, Autotuner
from repro.core.framework import BetterTogether, DeploymentPlan
from repro.core.optimizer import OptimizationResult, ScheduleCandidate
from repro.core.profiler import INTERFERENCE, ISOLATED, ProfilingTable
from repro.core.schedule import validate_schedule
from repro.core.stage import Application
from repro.errors import CampaignError
from repro.serialization import (
    SerializationError,
    optimization_from_dict,
    optimization_to_dict,
    read_artifact,
    schedule_to_dict,
    write_artifact,
)

#: Callback invoked after each completed unit of work with a label like
#: ``"profile:interference:sort:gpu"`` or ``"autotune:3"``.  Used by the
#: CLI for progress and by the crash tests to kill mid-campaign.
UnitCallback = Callable[[str], None]

_MANIFEST = "manifest.json"
_OPTIMIZATION = "optimization.json"
_SCHEDULE = "schedule.json"


def _safe_name(name: str) -> str:
    """File-system-safe rendering of a stage/PU name."""
    return re.sub(r"[^A-Za-z0-9._-]", "_", name)


@dataclass
class SessionReport:
    """What a campaign run reused, re-measured and repaired."""

    cells_reused: int = 0
    cells_measured: int = 0
    corrupt_units: List[str] = field(default_factory=list)
    optimization_reused: bool = False
    measurements_reused: int = 0
    measurements_run: int = 0
    events: List[str] = field(default_factory=list)

    def note(self, message: str) -> None:
        """Append one free-form event line to the session log."""
        self.events.append(message)

    def format(self) -> str:
        """Human-readable resume summary."""
        lines = [
            "campaign session:",
            f"  profiling cells: {self.cells_reused} reused, "
            f"{self.cells_measured} measured",
            f"  optimization: "
            f"{'reused' if self.optimization_reused else 'computed'}",
            f"  autotune measurements: {self.measurements_reused} "
            f"reused, {self.measurements_run} run",
        ]
        if self.corrupt_units:
            lines.append(
                f"  corrupt checkpoints repaired: "
                f"{len(self.corrupt_units)}"
            )
            for unit in self.corrupt_units:
                lines.append(f"    - {unit}")
        return "\n".join(lines)


class CampaignSession:
    """Checkpointed execution of a BetterTogether campaign.

    Args:
        directory: Session directory (created if missing).  Re-running
            with the same directory resumes: every valid checkpoint is
            reused, incomplete or corrupted units are re-executed.
        framework: The configured :class:`BetterTogether` driver whose
            parameters (repetitions, k, gap slack, eval tasks...) define
            the campaign.  A resumed session must be configured
            identically - a mismatch raises :class:`CampaignError`
            instead of silently mixing artifacts.
    """

    def __init__(self, directory, framework: BetterTogether):
        self.directory = Path(directory)
        self.framework = framework
        self.report = SessionReport()

    # ------------------------------------------------------------------
    # Manifest
    # ------------------------------------------------------------------
    def _manifest_payload(self, application: Application) -> Dict[str, Any]:
        framework = self.framework
        return {
            "application": application.name,
            "platform": framework.platform.name,
            "repetitions": framework.profiler.repetitions,
            "k": framework.k,
            "gap_slack": framework.gap_slack,
            "autotune_top": framework.autotune_top,
            "eval_tasks": framework.eval_tasks,
            "time_budget_s": framework.time_budget_s,
        }

    def _check_manifest(self, application: Application) -> None:
        path = self.directory / _MANIFEST
        expected = self._manifest_payload(application)
        if path.exists():
            try:
                data = read_artifact(path, kind="session_manifest")
            except SerializationError as exc:
                # The manifest is derived state: repairable, not fatal.
                self.report.corrupt_units.append(f"manifest ({exc})")
                self.report.note(f"rewriting corrupt manifest: {exc}")
            else:
                found = {key: data.get(key) for key in expected}
                if found != expected:
                    diffs = ", ".join(
                        f"{key}: expected {expected[key]!r}, "
                        f"found {found[key]!r}"
                        for key in expected if found[key] != expected[key]
                    )
                    raise CampaignError(
                        f"session {self.directory} was started with "
                        f"different parameters ({diffs}); resume with "
                        "the original configuration or use a fresh "
                        "directory"
                    )
                return
        self.directory.mkdir(parents=True, exist_ok=True)
        write_artifact(path, "session_manifest", expected)

    # ------------------------------------------------------------------
    # Phase 1: profiling, one cell at a time
    # ------------------------------------------------------------------
    def _cell_path(self, mode: str, stage: str, pu_class: str) -> Path:
        return (self.directory / "profiling" / _safe_name(mode)
                / f"{_safe_name(stage)}__{_safe_name(pu_class)}.json")

    def _load_cell(
        self, application: Application, mode: str, stage: str,
        pu_class: str,
    ) -> Optional[Tuple[float, float]]:
        """A previously checkpointed cell, or ``None`` to (re-)measure."""
        path = self._cell_path(mode, stage, pu_class)
        if not path.exists():
            return None
        try:
            data = read_artifact(path, kind="profiling_cell")
            coords = (data["application"], data["platform"],
                      data["mode"], data["stage"], data["pu_class"])
            if coords != (application.name,
                          self.framework.platform.name,
                          mode, stage, pu_class):
                raise SerializationError(
                    f"{path}: cell coordinates {coords} do not match "
                    "their location in the session"
                )
            return float(data["mean_s"]), float(data["stddev_s"])
        except (SerializationError, KeyError, TypeError,
                ValueError) as exc:
            unit = f"profile:{mode}:{stage}:{pu_class}"
            self.report.corrupt_units.append(f"{unit} ({exc})")
            self.report.note(f"re-measuring corrupt cell {unit}: {exc}")
            return None

    def profile(
        self, application: Application, mode: str = INTERFERENCE,
        on_unit: Optional[UnitCallback] = None,
    ) -> ProfilingTable:
        """Collect (or resume) one profiling table, cell by cell."""
        self._check_manifest(application)
        profiler = self.framework.profiler
        pu_classes = self.framework.platform.pu_classes()
        entries: Dict[Tuple[str, str], float] = {}
        stddevs: Dict[Tuple[str, str], float] = {}
        for stage in application.stage_names:
            for pu_class in pu_classes:
                cached = self._load_cell(application, mode, stage,
                                         pu_class)
                if cached is not None:
                    mean, std = cached
                    self.report.cells_reused += 1
                else:
                    mean, std = profiler.measure_cell(
                        application, stage, pu_class, mode
                    )
                    path = self._cell_path(mode, stage, pu_class)
                    path.parent.mkdir(parents=True, exist_ok=True)
                    write_artifact(path, "profiling_cell", {
                        "application": application.name,
                        "platform": self.framework.platform.name,
                        "mode": mode,
                        "stage": stage,
                        "pu_class": pu_class,
                        "mean_s": mean,
                        "stddev_s": std,
                    })
                    self.report.cells_measured += 1
                entries[(stage, pu_class)] = mean
                stddevs[(stage, pu_class)] = std
                if on_unit is not None:
                    on_unit(f"profile:{mode}:{stage}:{pu_class}")
        return ProfilingTable(
            application=application.name,
            platform=self.framework.platform.name,
            mode=mode,
            entries=entries,
            stage_names=application.stage_names,
            pu_classes=pu_classes,
            stddevs=stddevs,
        )

    def profile_both(
        self, application: Application,
        on_unit: Optional[UnitCallback] = None,
    ) -> Tuple[ProfilingTable, ProfilingTable]:
        """Checkpointed (isolated, interference) pair (Fig. 7 input)."""
        return (
            self.profile(application, mode=ISOLATED, on_unit=on_unit),
            self.profile(application, mode=INTERFERENCE,
                         on_unit=on_unit),
        )

    # ------------------------------------------------------------------
    # Phase 2: optimization (one unit - the candidate log)
    # ------------------------------------------------------------------
    def optimize(
        self, application: Application, table: ProfilingTable,
        on_unit: Optional[UnitCallback] = None,
    ) -> OptimizationResult:
        """Load the checkpointed candidate log or compute and persist it."""
        path = self.directory / _OPTIMIZATION
        if path.exists():
            try:
                data = read_artifact(path, kind="optimization_result")
                result = optimization_from_dict(data, path=path)
                if (result.application != application.name
                        or result.platform
                        != self.framework.platform.name):
                    raise SerializationError(
                        f"{path}: candidate log belongs to "
                        f"({result.application!r}, {result.platform!r})"
                    )
                self.report.optimization_reused = True
                if on_unit is not None:
                    on_unit("optimize")
                return result
            except SerializationError as exc:
                self.report.corrupt_units.append(f"optimize ({exc})")
                self.report.note(
                    f"re-running corrupt optimization: {exc}"
                )
        result = self.framework.optimize(application, table)
        write_artifact(path, "optimization_result",
                       _strip_tag(optimization_to_dict(result)))
        if on_unit is not None:
            on_unit("optimize")
        return result

    # ------------------------------------------------------------------
    # Phase 3: autotuning, one candidate at a time
    # ------------------------------------------------------------------
    def _measurement_path(self, rank: int) -> Path:
        return self.directory / "autotune" / f"cand_{rank:03d}.json"

    def _load_measurement(
        self, candidate: ScheduleCandidate,
    ) -> Optional[float]:
        path = self._measurement_path(candidate.rank)
        if not path.exists():
            return None
        try:
            data = read_artifact(path, kind="autotune_measurement")
            if (int(data["rank"]) != candidate.rank
                    or tuple(data["assignments"])
                    != candidate.schedule.assignments):
                raise SerializationError(
                    f"{path}: measurement does not match candidate "
                    f"#{candidate.rank}'s schedule"
                )
            return float(data["measured_latency_s"])
        except (SerializationError, KeyError, TypeError,
                ValueError) as exc:
            unit = f"autotune:{candidate.rank}"
            self.report.corrupt_units.append(f"{unit} ({exc})")
            self.report.note(
                f"re-measuring corrupt measurement {unit}: {exc}"
            )
            return None

    def autotune(
        self, application: Application,
        optimization: OptimizationResult,
        on_unit: Optional[UnitCallback] = None,
    ) -> AutotuneResult:
        """Measure (or reuse) the top candidates, one checkpoint each."""
        tuner = Autotuner(
            application, self.framework.platform,
            eval_tasks=self.framework.eval_tasks,
        )
        top = self.framework.autotune_top
        candidates = (optimization.candidates[:top] if top is not None
                      else optimization.candidates)
        entries: List[AutotuneEntry] = []
        for candidate in candidates:
            cached = self._load_measurement(candidate)
            if cached is not None:
                entries.append(AutotuneEntry(
                    rank=candidate.rank, candidate=candidate,
                    measured_latency_s=cached,
                ))
                self.report.measurements_reused += 1
            else:
                entry = tuner.measure(candidate)
                path = self._measurement_path(candidate.rank)
                path.parent.mkdir(parents=True, exist_ok=True)
                write_artifact(path, "autotune_measurement", {
                    "application": application.name,
                    "platform": self.framework.platform.name,
                    "rank": candidate.rank,
                    "assignments": list(candidate.schedule.assignments),
                    "predicted_latency_s": candidate.predicted_latency_s,
                    "measured_latency_s": entry.measured_latency_s,
                })
                entries.append(entry)
                self.report.measurements_run += 1
            if on_unit is not None:
                on_unit(f"autotune:{candidate.rank}")
        return AutotuneResult(entries=entries)

    # ------------------------------------------------------------------
    # The end-to-end, resumable campaign
    # ------------------------------------------------------------------
    def run(
        self, application: Application,
        on_unit: Optional[UnitCallback] = None,
    ) -> DeploymentPlan:
        """Run (or resume) the full campaign; idempotent per directory.

        Every completed unit of work is on disk before the next starts,
        so the process can die at any point - SIGKILL included - and a
        re-run picks up from the last completed unit.  A fully
        checkpointed session re-executes nothing.
        """
        table = self.profile(application, mode=INTERFERENCE,
                             on_unit=on_unit)
        optimization = self.optimize(application, table,
                                     on_unit=on_unit)
        autotune = self.autotune(application, optimization,
                                 on_unit=on_unit)
        plan = DeploymentPlan(
            application=application,
            platform=self.framework.platform,
            table=table,
            optimization=optimization,
            autotune=autotune,
        )
        schedule = validate_schedule(
            plan.schedule, application,
            available_pus=self.framework.platform.schedulable_classes(),
        )
        write_artifact(self.directory / _SCHEDULE, "schedule",
                       _strip_tag(schedule_to_dict(schedule)))
        if on_unit is not None:
            on_unit("schedule")
        return plan

    # ------------------------------------------------------------------
    def status(self, application: Application) -> Dict[str, Any]:
        """How much of the campaign is already checkpointed on disk."""
        pu_classes = self.framework.platform.pu_classes()
        total_cells = len(application.stage_names) * len(pu_classes)
        done_cells = sum(
            1
            for stage in application.stage_names
            for pu in pu_classes
            if self._cell_path(INTERFERENCE, stage, pu).exists()
        )
        measured = sorted(
            int(match.group(1))
            for path in (self.directory / "autotune").glob(
                "cand_*.json")
            for match in [re.match(r"cand_(\d+)\.json$", path.name)]
            if match
        ) if (self.directory / "autotune").exists() else []
        return {
            "directory": str(self.directory),
            "manifest": (self.directory / _MANIFEST).exists(),
            "profiling_cells": {"done": done_cells,
                                "total": total_cells},
            "optimization": (self.directory / _OPTIMIZATION).exists(),
            "autotune_measurements": measured,
            "schedule": (self.directory / _SCHEDULE).exists(),
        }


def _strip_tag(data: Dict[str, Any]) -> Dict[str, Any]:
    """Drop kind/version so ``write_artifact`` can re-tag the payload."""
    return {k: v for k, v in data.items() if k not in ("kind", "version")}
