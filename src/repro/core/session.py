"""Durable campaigns: checkpoint/resume for the end-to-end BT flow.

A full BetterTogether campaign (profile -> optimize -> autotune) takes
~6 minutes per device per application on real hardware (paper section
3.2).  Out of the box it is all-or-nothing: a crash mid-profiling, a
wedged dispatcher or a power loss discards everything collected so far.
:class:`CampaignSession` makes the campaign restartable.  It is not a
second copy of the campaign: :meth:`CampaignSession.run` runs
:meth:`BetterTogether.run` itself, and the session is a checkpoint store
plugged into that flow at three seams:

* **per cell** - :meth:`cell` wraps BT-Profiler's one cell routine: a
  checkpointed (stage, PU, mode) cell is read back, a missing one is
  measured and written before the next unit is reported;
* **the candidate log** - :meth:`optimize` loads or computes (and
  persists) around :meth:`BetterTogether.optimize`;
* **per autotune round** - the autotuner asks :meth:`measurement` for
  each candidate, measures the missing ones in one round and hands
  every entry to :meth:`record` in rank order, which writes each new
  measurement to its own file.  The unit of resume is the round: a
  crash mid-round re-measures that round's candidates.

Re-running the same session (``python -m repro run --resume <dir>``)
reuses every valid checkpoint and re-executes only the incomplete units.
Because each unit's measurement RNG is keyed by its coordinates alone
(not by collection order), a resumed campaign produces artifacts that
are **byte-identical** to an uninterrupted run's.

All persistence goes through :mod:`repro.core.serialization`'s atomic,
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

import math
import re
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.core.autotuner import AutotuneEntry
from repro.core.framework import BetterTogether, DeploymentPlan
from repro.core.optimizer import OptimizationResult, ScheduleCandidate
from repro.core.profiler import ProfilingTable
from repro.core.schedule import validate_schedule
from repro.core.serialization import (
    CHECKSUM_KEY,
    SerializationError,
    optimization_from_dict,
    read_artifact,
    save,
    write_artifact,
)
from repro.errors import CampaignError
from repro.stage import Application

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


def _silent(unit: str) -> None:
    """The :data:`UnitCallback` of a run nobody watches."""


def _seconds(data: Dict[str, Any], key: str) -> float:
    """``data[key]``, a finite non-negative number in a sound checkpoint."""
    value = data[key]
    if type(value) not in (int, float) or not 0 <= value < math.inf:
        raise SerializationError(f"{key} {value!r} is not a duration")
    return float(value)


@dataclass
class SessionReport:
    """What a campaign run reused, re-measured and repaired."""

    cells_reused: int = 0
    cells_measured: int = 0
    corrupt_units: List[str] = field(default_factory=list)
    optimization_reused: bool = False
    measurements_reused: int = 0
    measurements_run: int = 0

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
        self._on_unit: UnitCallback = _silent

    def run(
        self, application: Application,
        on_unit: Optional[UnitCallback] = None,
    ) -> DeploymentPlan:
        """Run (or resume) the full campaign; idempotent per directory.

        Checks the manifest, runs :meth:`BetterTogether.run` with this
        session plugged in, and writes the deployed schedule.  Every
        completed unit of work is on disk before the next one is
        reported, so the process can die at any point - SIGKILL
        included - and a re-run picks up from the last completed unit.
        A fully checkpointed session re-executes nothing.
        """
        self._check_manifest(application)
        self._on_unit = on_unit or _silent
        plan = self.framework.run(application, session=self)
        save(validate_schedule(
            plan.schedule, application,
            available_pus=self.framework.platform.schedulable_classes(),
        ), self.directory / _SCHEDULE)
        self._on_unit("schedule")
        return plan

    # ------------------------------------------------------------------
    # Manifest and checkpoint reads
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

    def _read(self, path: Path, kind: str, unit: str,
              parse: Callable[[Dict[str, Any]], Any]) -> Any:
        """``parse`` of the checkpoint at ``path``, or ``None`` to
        (re-)run ``unit``: the file is missing, or corrupt - reported,
        never trusted and never fatal."""
        if not path.exists():
            return None
        try:
            data = read_artifact(path, kind=kind)
            if CHECKSUM_KEY not in data:  # the session checksums them all
                raise SerializationError(f"{path}: no checksum")
            return parse(data)
        except (SerializationError, KeyError, TypeError,
                ValueError) as exc:
            self.report.corrupt_units.append(f"{unit} ({exc})")
            return None

    # ------------------------------------------------------------------
    # Seam 1: BT-Profiler's cell routine
    # ------------------------------------------------------------------
    def cell(
        self, measure: Callable[..., Tuple[float, float]],
        application: str, stage: str, pu_class: str, mode: str,
        samples: List[float],
    ) -> Tuple[float, float]:
        """``measure`` (the profiler's cell routine) of the cell's
        ``samples``, checkpointed: a cell on disk is read back; a
        missing or corrupt one is measured and written before its unit
        is reported."""
        unit = f"profile:{mode}:{stage}:{pu_class}"
        path = (self.directory / "profiling" / _safe_name(mode)
                / f"{_safe_name(stage)}__{_safe_name(pu_class)}.json")
        where = {"application": application,
                 "platform": self.framework.platform.name,
                 "mode": mode, "stage": stage, "pu_class": pu_class}

        def parse(data: Dict[str, Any]) -> Tuple[float, float]:
            found = {key: data[key] for key in where}
            if found != where:
                raise SerializationError(
                    f"{path}: cell coordinates {tuple(found.values())} "
                    "do not match their location in the session"
                )
            return _seconds(data, "mean_s"), _seconds(data, "stddev_s")

        cell = self._read(path, "profiling_cell", unit, parse)
        if cell is not None:
            self.report.cells_reused += 1
        else:
            cell = measure(stage, pu_class, mode, samples)
            path.parent.mkdir(parents=True, exist_ok=True)
            write_artifact(path, "profiling_cell", {
                **where, "mean_s": cell[0], "stddev_s": cell[1],
            })
            self.report.cells_measured += 1
        self._on_unit(unit)
        return cell

    # ------------------------------------------------------------------
    # Seam 2: the candidate log
    # ------------------------------------------------------------------
    def optimize(self, application: Application,
                 table: ProfilingTable) -> OptimizationResult:
        """:meth:`BetterTogether.optimize`, checkpointed: the candidate
        log on disk is read back, or computed and written."""
        path = self.directory / _OPTIMIZATION
        platform = self.framework.platform.name

        def parse(data: Dict[str, Any]) -> OptimizationResult:
            result = optimization_from_dict(data, path=path)
            if (result.application, result.platform) != (
                    application.name, platform):
                raise SerializationError(
                    f"{path}: candidate log belongs to "
                    f"({result.application!r}, {result.platform!r})"
                )
            return result

        result = self._read(path, "optimization_result", "optimize", parse)
        self.report.optimization_reused = result is not None
        if result is None:
            result = self.framework.optimize(application, table)
            save(result, path)
        self._on_unit("optimize")
        return result

    # ------------------------------------------------------------------
    # Seam 3: the autotune round
    # ------------------------------------------------------------------
    def _measurement_path(self, rank: int) -> Path:
        return self.directory / "autotune" / f"cand_{rank:03d}.json"

    def measurement(
        self, candidate: ScheduleCandidate,
    ) -> Optional[AutotuneEntry]:
        """``candidate``'s checkpointed measurement, or ``None`` when
        the autotune round must measure it."""
        path = self._measurement_path(candidate.rank)

        def parse(data: Dict[str, Any]) -> AutotuneEntry:
            if (int(data["rank"]) != candidate.rank
                    or tuple(data["assignments"])
                    != candidate.schedule.assignments):
                raise SerializationError(
                    f"{path}: measurement does not match candidate "
                    f"#{candidate.rank}'s schedule"
                )
            return AutotuneEntry(
                rank=candidate.rank, candidate=candidate,
                measured_latency_s=_seconds(data, "measured_latency_s"),
            )

        return self._read(path, "autotune_measurement",
                          f"autotune:{candidate.rank}", parse)

    def record(self, application: str, entry: AutotuneEntry,
               reused: bool) -> AutotuneEntry:
        """Account for one entry of the round, in rank order: a new
        measurement is written to its own file, then its unit is
        reported."""
        if reused:
            self.report.measurements_reused += 1
        else:
            candidate = entry.candidate
            path = self._measurement_path(entry.rank)
            path.parent.mkdir(parents=True, exist_ok=True)
            write_artifact(path, "autotune_measurement", {
                "application": application,
                "platform": self.framework.platform.name,
                "rank": entry.rank,
                "assignments": list(candidate.schedule.assignments),
                "predicted_latency_s": candidate.predicted_latency_s,
                "measured_latency_s": entry.measured_latency_s,
            })
            self.report.measurements_run += 1
        self._on_unit(f"autotune:{entry.rank}")
        return entry
