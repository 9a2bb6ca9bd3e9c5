"""JSON persistence for profiling tables, schedules and candidate sets.

Collecting a profiling table takes ~6 minutes per device per application
on real hardware (paper section 3.2), so a deployable framework must be
able to cache and ship them.  This module round-trips the framework's
data products through plain JSON:

* :class:`~repro.core.profiler.ProfilingTable` - the expensive artifact,
* :class:`~repro.core.schedule.Schedule` - the deployable artifact,
* :class:`~repro.core.optimizer.OptimizationResult` - the candidate log
  (enough to resume an autotuning campaign on-device).

All dumps carry a ``kind`` and ``version`` tag plus a SHA-256 checksum
over the payload; loads validate all three.  Writes are atomic (tmp +
fsync + rename) so a crash mid-write never leaves a truncated artifact
behind - the checkpoint/resume machinery in :mod:`repro.core.session`
depends on both properties to tell "cell never written" from "cell
written and trustworthy".
"""

from __future__ import annotations

import hashlib
import json
import os
import tempfile
from pathlib import Path
from typing import Any, Dict, Optional, Union

from repro.core.optimizer import OptimizationResult, ScheduleCandidate
from repro.core.profiler import ProfilingTable
from repro.core.schedule import Schedule
from repro.errors import ReproError
from repro.obs.metrics import metrics

FORMAT_VERSION = 1

#: Key under which the payload checksum is stored in every artifact.
CHECKSUM_KEY = "sha256"

PathLike = Union[str, Path]


class SerializationError(ReproError):
    """Raised for malformed or mismatched persisted artifacts."""


def _where(path: Optional[PathLike]) -> str:
    return f"{path}: " if path is not None else ""


def _tagged(kind: str, payload: Dict[str, Any]) -> Dict[str, Any]:
    return {"kind": kind, "version": FORMAT_VERSION, **payload}


def _check_tag(data: Dict[str, Any], kind: str,
               path: Optional[PathLike] = None) -> None:
    if not isinstance(data, dict):
        raise SerializationError(
            f"{_where(path)}expected a JSON object for {kind}"
        )
    if data.get("kind") != kind:
        raise SerializationError(
            f"{_where(path)}expected kind {kind!r}, "
            f"found {data.get('kind')!r}"
        )
    if data.get("version") != FORMAT_VERSION:
        raise SerializationError(
            f"{_where(path)}expected {kind} version {FORMAT_VERSION}, "
            f"found {data.get('version')!r}"
        )


# ----------------------------------------------------------------------
# Atomic, checksummed file primitives
# ----------------------------------------------------------------------
def artifact_sha256(data: Dict[str, Any]) -> str:
    """Checksum of an artifact dict (the ``sha256`` key excluded)."""
    body = {k: v for k, v in data.items() if k != CHECKSUM_KEY}
    canonical = json.dumps(body, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


def atomic_write_text(path: PathLike, text: str) -> None:
    """Write ``text`` to ``path`` atomically (tmp + fsync + rename).

    Readers either see the previous complete file or the new complete
    file - never a truncated in-between, even across a crash or SIGKILL
    mid-write.
    """
    target = Path(path)
    fd, tmp_name = tempfile.mkstemp(
        prefix=f".{target.name}.", suffix=".tmp", dir=str(target.parent)
    )
    try:
        with os.fdopen(fd, "w") as handle:
            handle.write(text)
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(tmp_name, target)
    except BaseException:
        try:
            os.unlink(tmp_name)
        except OSError:
            pass
        raise


def write_json_report(path: PathLike, payload: Dict[str, Any]) -> None:
    """Persist a plain (untagged) JSON report atomically.

    The single sanctioned sink for tool output files - fault-sim
    reports, lint findings, race-checker verdicts - so every artifact
    write in the tree goes through the atomic tmp + fsync + rename
    path (and the ``RAW-ARTIFACT-WRITE`` lint rule can flag any that
    does not).

    When the observability metrics registry is capturing
    (:func:`repro.obs.capture`), its snapshot rides along under a
    ``metrics`` key, so every report written during an instrumented run
    carries its counters.  Disabled registries leave the payload - and
    therefore the bytes on disk - untouched.
    """
    registry = metrics()
    if registry.enabled and "metrics" not in payload:
        payload = dict(payload)
        payload["metrics"] = registry.snapshot()
    atomic_write_text(path, json.dumps(payload, indent=2) + "\n")


def write_artifact(path: PathLike, kind: str,
                   payload: Dict[str, Any]) -> None:
    """Persist a tagged, checksummed JSON artifact atomically."""
    data = _tagged(kind, payload)
    data[CHECKSUM_KEY] = artifact_sha256(data)
    atomic_write_text(path, json.dumps(data, indent=2))


def read_artifact(path: PathLike,
                  kind: Optional[str] = None) -> Dict[str, Any]:
    """Read a tagged artifact, verifying checksum (and ``kind`` if given).

    Raises:
        SerializationError: Unreadable or truncated file, checksum
            mismatch, or tag mismatch - always naming ``path``.
    """
    try:
        data = json.loads(Path(path).read_text())
    except (OSError, json.JSONDecodeError) as exc:
        raise SerializationError(f"cannot read {path}: {exc}") from exc
    if not isinstance(data, dict) or "kind" not in data:
        raise SerializationError(f"{path} is not a tagged artifact")
    stored = data.get(CHECKSUM_KEY)
    if stored is not None:
        expected = artifact_sha256(data)
        if stored != expected:
            raise SerializationError(
                f"{path}: checksum mismatch - expected {expected}, "
                f"found {stored} (artifact corrupted?)"
            )
    if kind is not None:
        _check_tag(data, kind, path=path)
    return data


# ----------------------------------------------------------------------
# ProfilingTable
# ----------------------------------------------------------------------
def profiling_table_to_dict(table: ProfilingTable) -> Dict[str, Any]:
    """Render a profiling table as a tagged JSON-ready dict."""
    return _tagged("profiling_table", {
        "application": table.application,
        "platform": table.platform,
        "mode": table.mode,
        "stage_names": list(table.stage_names),
        "pu_classes": list(table.pu_classes),
        "latencies_s": [
            [table.latency(stage, pu) for pu in table.pu_classes]
            for stage in table.stage_names
        ],
        "stddevs_s": [
            [table.stddev(stage, pu) for pu in table.pu_classes]
            for stage in table.stage_names
        ],
    })


def profiling_table_from_dict(
    data: Dict[str, Any], path: Optional[PathLike] = None,
) -> ProfilingTable:
    """Rebuild a profiling table from its tagged dict form."""
    _check_tag(data, "profiling_table", path=path)
    try:
        stage_names = tuple(data["stage_names"])
        pu_classes = tuple(data["pu_classes"])
        rows = data["latencies_s"]
        entries = {
            (stage, pu): float(rows[i][j])
            for i, stage in enumerate(stage_names)
            for j, pu in enumerate(pu_classes)
        }
        std_rows = data.get("stddevs_s")
        stddevs = {}
        if std_rows is not None:
            stddevs = {
                (stage, pu): float(std_rows[i][j])
                for i, stage in enumerate(stage_names)
                for j, pu in enumerate(pu_classes)
            }
        return ProfilingTable(
            application=data["application"],
            platform=data["platform"],
            mode=data["mode"],
            entries=entries,
            stage_names=stage_names,
            pu_classes=pu_classes,
            stddevs=stddevs,
        )
    except (KeyError, IndexError, TypeError, ValueError) as exc:
        raise SerializationError(
            f"{_where(path)}malformed profiling table: {exc}"
        ) from exc


# ----------------------------------------------------------------------
# Schedule
# ----------------------------------------------------------------------
def schedule_to_dict(schedule: Schedule) -> Dict[str, Any]:
    """Render a schedule as a tagged JSON-ready dict."""
    return _tagged("schedule", {"assignments": list(schedule.assignments)})


def _schedule(assignments: Any, path: Optional[PathLike]) -> Schedule:
    """A schedule from loaded ``assignments``: a list of PU-class names
    (a string is not one - ``"abc"`` would read as ``a-b-c``)."""
    if not (isinstance(assignments, list)
            and all(isinstance(a, str) for a in assignments)):
        raise SerializationError(
            f"{_where(path)}assignments must be a list of PU-class "
            f"names, found {assignments!r}"
        )
    return Schedule.from_assignments(assignments)


def schedule_from_dict(
    data: Dict[str, Any], path: Optional[PathLike] = None,
) -> Schedule:
    """Rebuild a schedule (contiguity re-validated on load)."""
    _check_tag(data, "schedule", path=path)
    if "assignments" not in data:
        raise SerializationError(
            f"{_where(path)}schedule missing assignments"
        )
    return _schedule(data["assignments"], path)


# ----------------------------------------------------------------------
# OptimizationResult
# ----------------------------------------------------------------------
def optimization_to_dict(result: OptimizationResult) -> Dict[str, Any]:
    """Render an optimization result (candidate log) as a tagged dict."""
    def candidate(c: ScheduleCandidate) -> Dict[str, Any]:
        return {
            "rank": c.rank,
            "assignments": list(c.schedule.assignments),
            "predicted_latency_s": c.predicted_latency_s,
            "gapness_s": c.gapness_s,
        }

    return _tagged("optimization_result", {
        "application": result.application,
        "platform": result.platform,
        "gap_threshold_s": result.gap_threshold_s,
        "solver_invocations": result.solver_invocations,
        "degraded": result.degraded,
        "utilization_optimum": (
            candidate(result.utilization_optimum)
            if result.utilization_optimum is not None else None
        ),
        "candidates": [candidate(c) for c in result.candidates],
    })


def optimization_from_dict(
    data: Dict[str, Any], path: Optional[PathLike] = None,
) -> OptimizationResult:
    """Rebuild an optimization result from its tagged dict form."""
    _check_tag(data, "optimization_result", path=path)

    def candidate(entry: Dict[str, Any]) -> ScheduleCandidate:
        return ScheduleCandidate(
            rank=int(entry["rank"]),
            schedule=_schedule(entry["assignments"], path),
            predicted_latency_s=float(entry["predicted_latency_s"]),
            gapness_s=float(entry["gapness_s"]),
        )

    try:
        return OptimizationResult(
            application=data["application"],
            platform=data["platform"],
            candidates=[candidate(c) for c in data["candidates"]],
            gap_threshold_s=float(data["gap_threshold_s"]),
            utilization_optimum=(
                candidate(data["utilization_optimum"])
                if data.get("utilization_optimum") is not None else None
            ),
            solver_invocations=int(data.get("solver_invocations", 0)),
            degraded=bool(data.get("degraded", False)),
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise SerializationError(
            f"{_where(path)}malformed optimization result: {exc}"
        ) from exc


# ----------------------------------------------------------------------
# File helpers
# ----------------------------------------------------------------------
_DUMPERS = {
    ProfilingTable: profiling_table_to_dict,
    Schedule: schedule_to_dict,
    OptimizationResult: optimization_to_dict,
}
_LOADERS = {
    "profiling_table": profiling_table_from_dict,
    "schedule": schedule_from_dict,
    "optimization_result": optimization_from_dict,
}


def save(obj, path: PathLike) -> None:
    """Persist a supported artifact as checksummed JSON, atomically."""
    dumper = _DUMPERS.get(type(obj))
    if dumper is None:
        raise SerializationError(
            f"cannot serialize {type(obj).__name__}"
        )
    data = dumper(obj)
    data[CHECKSUM_KEY] = artifact_sha256(data)
    atomic_write_text(path, json.dumps(data, indent=2))


def load(path: PathLike):
    """Load any supported artifact (dispatches on its ``kind`` tag).

    The payload checksum, when present, is verified before the artifact
    is rebuilt; artifacts written by older versions (no ``sha256`` key)
    still load.
    """
    data = read_artifact(path)
    loader = _LOADERS.get(data["kind"])
    if loader is None:
        raise SerializationError(
            f"{path}: unknown artifact kind {data['kind']!r}"
        )
    return loader(data, path=path)
