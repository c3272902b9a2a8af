"""Supervised, crash-safe experiment runs: manifests, checkpoints, resume.

:func:`run_grid` is deterministic and retry-hardened but all-or-nothing
at the *process* level: a SIGKILL, OOM, or preemption at hour N of a
long sweep loses every in-flight unit's progress, and a deadline-bounded
run has no way to stop cleanly with trustworthy partial results.  This
module supervises a grid so that neither happens:

* **Per-unit checkpoints.**  Each worker runs its unit one scheduler at
  a time, writing a simulator checkpoint
  (:mod:`repro.simulator.checkpoint`) every ``checkpoint_every``
  simulated seconds and persisting each completed scheduler's result to
  a *partial* file — so a kill during scheduler 3 of 5 costs at most
  one checkpoint interval of the third simulation, nothing more.

* **A grid manifest.**  ``manifest.json`` in the run directory records
  the schema version, the cache salt, and every unit's canonical
  config, seed, scheduler set, fingerprint, and final status.
  :func:`resume_run` rebuilds the exact same units from it — same
  fingerprints, same replicate seeds — and re-runs the grid: completed units
  come straight from the result cache, interrupted ones restore from
  their checkpoints and run only the remaining simulated time.

* **A structured status taxonomy.**  Instead of the all-or-nothing
  ``GridExecutionError``, every unit ends in exactly one state:
  ``completed`` (ran clean), ``resumed`` (completed after restoring
  prior on-disk state), ``failed`` (exhausted its retry — error or
  worker crash), or ``abandoned`` (the wall-clock ``run_budget``
  expired first; its checkpoints persist for the next resume).  With
  ``allow_partial=False`` (the default) failures still raise; with
  ``True`` the report degrades gracefully.

Determinism contract: checkpointing is a pure side effect — a
supervised run's results, replicate seeds, and cache keys are byte-identical
to a plain ``run_grid`` of the same units, whether or not any
checkpoint was ever written or restored (the parity suite asserts the
restore half; the neutrality tests assert the rest).
"""

from __future__ import annotations

import functools
import json
import os
import pickle
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence, Tuple, Union

from repro.errors import CheckpointError, GridExecutionError, ManifestError
from repro.experiments.common import (
    ScenarioConfig,
    ScenarioResult,
    build_simulation,
)
from repro.experiments.parallel import (
    GridReport,
    ProgressHook,
    ResultCache,
    WorkUnit,
    default_cache_salt,
)
from repro.experiments.parallel import (
    run_grid as _run_grid,
)
from repro.simulator.checkpoint import restore_simulation
from repro.simulator.runtime import CoflowSimulation

__all__ = [
    "MANIFEST_SCHEMA",
    "SupervisorReport",
    "config_from_record",
    "execute_supervised_unit",
    "load_manifest",
    "resume_run",
    "run_supervised",
    "unit_from_record",
]

#: Schema version of ``manifest.json``; readers reject other versions.
MANIFEST_SCHEMA = 1

_MANIFEST_NAME = "manifest.json"
_STATUS_PENDING = "pending"
_STATUS_COMPLETED = "completed"
_STATUS_RESUMED = "resumed"
_STATUS_FAILED = "failed"
_STATUS_ABANDONED = "abandoned"


# ----------------------------------------------------------------------
# Manifest records <-> units
# ----------------------------------------------------------------------
def config_from_record(record: Dict[str, Any]) -> ScenarioConfig:
    """Rebuild a :class:`ScenarioConfig` from its canonical JSON record.

    The exact inverse of :func:`repro.experiments.parallel.canonical_config`:
    extension fields omitted at their defaults come back as those
    defaults, and tuple-valued fields (the scheduler set) are restored
    from their JSON list form.
    """
    fields = dict(record)
    if "schedulers" in fields:
        fields["schedulers"] = tuple(fields["schedulers"])
    try:
        return ScenarioConfig(**fields)
    except TypeError as exc:
        raise ManifestError(
            f"manifest config record does not match ScenarioConfig: {exc}"
        ) from exc


def _unit_record(unit: WorkUnit, salt: str) -> Dict[str, Any]:
    from repro.experiments.parallel import canonical_config

    return {
        "label": unit.label,
        "seed": unit.seed,
        "schedulers": (
            list(unit.schedulers) if unit.schedulers is not None else None
        ),
        "config": json.loads(canonical_config(unit.config)),
        "fingerprint": unit.fingerprint(salt),  # simlint: ignore[SIM103]
        "status": _STATUS_PENDING,
    }


def unit_from_record(record: Dict[str, Any], salt: str) -> WorkUnit:
    """Rebuild a :class:`WorkUnit` from a manifest record, verified.

    The record's stored fingerprint must match the rebuilt unit's —
    anything else means the manifest no longer describes what this code
    would run (edited config, different library version / cache salt,
    or a corrupted file) and resuming would silently compute something
    different from what the manifest promises.
    """
    schedulers = record.get("schedulers")
    unit = WorkUnit(
        config=config_from_record(record["config"]),
        seed=record.get("seed"),
        schedulers=tuple(schedulers) if schedulers is not None else None,
        label=record.get("label", ""),
    )
    expected = record.get("fingerprint")
    actual = unit.fingerprint(salt)  # simlint: ignore[SIM103]
    if expected != actual:
        raise ManifestError(
            f"manifest unit {unit.describe()} fingerprints to {actual} under "
            f"the current code, but the manifest records {expected}; the "
            "manifest is stale (config edited, or library/salt changed) — "
            "rerun from scratch instead of resuming"
        )
    return unit


def _write_json_atomic(path: Path, payload: Dict[str, Any]) -> None:
    text = json.dumps(payload, indent=2, sort_keys=True)
    tmp = path.with_suffix(f".tmp.{os.getpid()}")
    tmp.write_text(text + "\n", encoding="utf-8")
    os.replace(tmp, path)


def load_manifest(path: Union[str, Path]) -> Dict[str, Any]:
    """Read and schema-check a run manifest."""
    target = Path(path)
    if target.is_dir():
        target = target / _MANIFEST_NAME
    try:
        payload = json.loads(target.read_text(encoding="utf-8"))
    except FileNotFoundError:
        raise ManifestError(f"no run manifest at {target}") from None
    except (OSError, json.JSONDecodeError) as exc:
        raise ManifestError(f"unreadable run manifest {target}: {exc}") from exc
    if not isinstance(payload, dict) or payload.get("schema") != MANIFEST_SCHEMA:
        raise ManifestError(
            f"run manifest {target} has schema "
            f"{payload.get('schema') if isinstance(payload, dict) else '?'!r}; "
            f"this library reads version {MANIFEST_SCHEMA}"
        )
    payload["_path"] = str(target)
    return payload


# ----------------------------------------------------------------------
# The supervised worker task
# ----------------------------------------------------------------------
def _checkpoint_path(run_dir: str, fingerprint: str, scheduler: str) -> Path:
    return Path(run_dir) / "checkpoints" / f"{fingerprint}.{scheduler}.ckpt"


def _partial_path(run_dir: str, fingerprint: str) -> Path:
    return Path(run_dir) / "partial" / f"{fingerprint}.pkl"


def _load_partial(path: Path) -> Dict[str, Any]:
    """Completed-scheduler results persisted by an interrupted attempt.

    Tolerant by design: a torn or stale partial file only costs a
    recompute, so any read problem degrades to "nothing saved".
    """
    try:
        payload = pickle.loads(path.read_bytes())
    except (OSError, pickle.UnpicklingError, EOFError, AttributeError,
            ImportError, IndexError, ValueError):
        return {}
    if not isinstance(payload, dict):
        return {}
    return payload


def execute_supervised_unit(
    unit: WorkUnit,
    run_dir: str,
    checkpoint_every: Optional[float],
    salt: str,
) -> ScenarioResult:
    """Run one unit scheduler-by-scheduler with durable progress.

    Drop-in replacement for
    :func:`repro.experiments.parallel.execute_unit` (same simulations,
    same results — checkpoint writes are pure side effects), plus crash
    safety: each completed scheduler's result lands in the unit's
    partial file, the in-flight scheduler checkpoints every
    ``checkpoint_every`` simulated seconds, and a later attempt restores
    both instead of starting over.  On success the unit's checkpoint and
    partial files are deleted — the result cache takes over from there.
    """
    fingerprint = unit.fingerprint(salt)
    config = unit.effective_config()
    names = unit.scheduler_names()
    partial_file = _partial_path(run_dir, fingerprint)
    saved = _load_partial(partial_file)
    outcome = ScenarioResult(config=config)
    for name in names:
        if name in saved:
            outcome.results[name] = saved[name]
            continue
        ckpt = _checkpoint_path(run_dir, fingerprint, name)
        sim: Optional[CoflowSimulation] = None
        if checkpoint_every is not None and ckpt.exists():
            # A torn checkpoint cannot exist (writes are atomic), but a
            # checkpoint from an older schema or a different code version
            # can; recovery from those is a fresh run, not a hard error.
            # A bad cadence is the caller's error and still raises.
            try:
                sim = restore_simulation(
                    ckpt, checkpoint_every=checkpoint_every, checkpoint_path=ckpt
                )
            except CheckpointError:
                sim = None
        if sim is None:
            ckpt.parent.mkdir(parents=True, exist_ok=True)
            sim = build_simulation(
                config,
                name,
                checkpoint_every=checkpoint_every,
                checkpoint_path=ckpt if checkpoint_every is not None else None,
            )
        result = sim.run()
        outcome.results[name] = result
        saved[name] = result
        partial_file.parent.mkdir(parents=True, exist_ok=True)
        tmp = partial_file.with_suffix(f".tmp.{os.getpid()}")
        tmp.write_bytes(pickle.dumps(saved))
        os.replace(tmp, partial_file)
    # The unit is complete: the result cache owns it now.  Leftover
    # checkpoint/partial files would only shadow future config changes.
    for name in names:
        _checkpoint_path(run_dir, fingerprint, name).unlink(missing_ok=True)
    partial_file.unlink(missing_ok=True)
    return outcome


def _has_prior_state(run_dir: str, fingerprint: str, names: Tuple[str, ...]) -> bool:
    if _partial_path(run_dir, fingerprint).exists():
        return True
    return any(
        _checkpoint_path(run_dir, fingerprint, name).exists() for name in names
    )


# ----------------------------------------------------------------------
# Reports
# ----------------------------------------------------------------------
@dataclass
class SupervisorReport:
    """A grid report plus the supervisor's per-unit status taxonomy."""

    report: GridReport
    #: one of "completed" / "resumed" / "failed" / "abandoned" per unit,
    #: in submission order
    statuses: List[str] = field(default_factory=list)
    manifest_path: Optional[Path] = None

    def counts(self) -> Dict[str, int]:
        out = {
            _STATUS_COMPLETED: 0,
            _STATUS_RESUMED: 0,
            _STATUS_FAILED: 0,
            _STATUS_ABANDONED: 0,
        }
        for status in self.statuses:
            out[status] = out.get(status, 0) + 1
        return out

    @property
    def ok(self) -> bool:
        """Every unit produced a result (possibly after a resume)."""
        return all(
            status in (_STATUS_COMPLETED, _STATUS_RESUMED)
            for status in self.statuses
        )

    @property
    def resumable(self) -> bool:
        """Something is left for a future ``resume_run`` to pick up."""
        return any(
            status in (_STATUS_FAILED, _STATUS_ABANDONED)
            for status in self.statuses
        )

    def to_dict(self) -> Dict[str, Any]:
        from repro.metrics.serialize import grid_report_to_dict

        payload = grid_report_to_dict(self.report)
        payload["statuses"] = list(self.statuses)
        payload["status_counts"] = self.counts()
        if self.manifest_path is not None:
            payload["manifest"] = str(self.manifest_path)
        return payload


# ----------------------------------------------------------------------
# The run manager
# ----------------------------------------------------------------------
def run_supervised(
    units: Sequence[WorkUnit],
    run_dir: Union[str, Path],
    checkpoint_every: Optional[float] = None,
    parallel: int = 1,
    run_budget: Optional[float] = None,
    allow_partial: bool = False,
    progress: Optional[ProgressHook] = None,
) -> SupervisorReport:
    """Run a grid under supervision: durable, resumable, budget-bounded.

    ``run_dir`` holds everything a resume needs — the manifest, the
    result cache, per-unit checkpoints and partials.  Calling this again
    with the same units and directory *is* a resume (completed units hit
    the cache, interrupted ones restore); :func:`resume_run` does the
    same from the manifest alone.  ``run_budget`` bounds the grid's
    wall-clock seconds: at expiry pending units are recorded as
    ``abandoned`` — their checkpoints persist, so the next resume
    continues instead of restarting (checkpoint-then-stop).  With
    ``allow_partial=False`` any ``failed``/``abandoned`` unit raises
    :class:`GridExecutionError` after the manifest is written; with
    ``True`` the caller gets the full structured report.  Units get
    :func:`repro.experiments.parallel.run_grid`'s one retry
    (:data:`repro.experiments.parallel.RETRIES`).
    """
    units = list(units)
    root = Path(run_dir)
    root.mkdir(parents=True, exist_ok=True)
    salt = default_cache_salt()
    manifest_path = root / _MANIFEST_NAME
    records = [_unit_record(unit, salt) for unit in units]
    manifest: Dict[str, Any] = {
        "schema": MANIFEST_SCHEMA,
        "salt": salt,
        "checkpoint_every": checkpoint_every,
        "units": records,
    }
    _write_json_atomic(manifest_path, manifest)

    prior_state = [
        _has_prior_state(str(root), record["fingerprint"], unit.scheduler_names())
        for unit, record in zip(units, records)
    ]
    # The REPRO_CACHE_SALT flow is the engine's one sanctioned
    # environment read: it namespaces manifests/caches across working
    # trees by design and never reaches seeds or results (see
    # docs/static-analysis.md and the sibling pragmas in parallel.py).
    cache = ResultCache(root / "cache", salt=salt)  # simlint: ignore[SIM103]
    task = functools.partial(
        execute_supervised_unit,
        run_dir=str(root),
        checkpoint_every=checkpoint_every,
        salt=salt,
    )
    report = _run_grid(  # simlint: ignore[SIM106] (worker persists checkpoints/partials: write-only durability, results stay pure)
        units,
        parallel=parallel,
        cache=cache,
        run_unit=task,
        progress=progress,
        budget=run_budget,
    )

    failures_by_index = {failure.index: failure for failure in report.failures}
    statuses: List[str] = []
    for index in range(len(units)):
        if report.results[index] is not None:
            statuses.append(
                _STATUS_RESUMED if prior_state[index] else _STATUS_COMPLETED
            )
        else:
            failure = failures_by_index.get(index)
            statuses.append(
                _STATUS_ABANDONED
                if failure is not None and failure.kind == "budget"
                else _STATUS_FAILED
            )
    outcome = SupervisorReport(
        report=report, statuses=statuses, manifest_path=manifest_path
    )
    for record, status in zip(records, statuses):
        record["status"] = status
    manifest["stats"] = outcome.counts()
    _write_json_atomic(manifest_path, manifest)

    if not allow_partial and not outcome.ok:
        summary = "; ".join(
            f"{failure.unit.describe()}: [{failure.kind}] {failure.error}"
            for failure in report.failures
        )
        raise GridExecutionError(
            f"{len(report.failures)} of {len(units)} supervised units did not "
            f"complete (manifest at {manifest_path} is resumable): {summary}",
            failures=report.failures,
        )
    return outcome


def resume_run(
    manifest_path: Union[str, Path],
    parallel: int = 1,
    run_budget: Optional[float] = None,
    allow_partial: bool = False,
    checkpoint_every: Optional[float] = None,
    progress: Optional[ProgressHook] = None,
) -> SupervisorReport:
    """Resume an interrupted supervised run from its manifest.

    Rebuilds the exact unit list (fingerprint-verified against the
    manifest; a mismatch raises :class:`ManifestError` — see
    :func:`unit_from_record` for what invalidates a manifest) and
    re-runs it in the same run directory: completed units come from the
    result cache, interrupted ones restore from their checkpoints.
    ``checkpoint_every`` defaults to the manifest's recorded cadence.
    """
    manifest = load_manifest(manifest_path)
    salt = default_cache_salt()
    if manifest.get("salt") != salt:
        raise ManifestError(
            f"manifest was written under cache salt {manifest.get('salt')!r} "
            f"but the current code uses {salt!r}; its cache entries and "
            "checkpoints no longer apply — rerun from scratch"
        )
    units = [
        unit_from_record(record, salt) for record in manifest.get("units", [])
    ]
    if not units:
        raise ManifestError(f"manifest {manifest['_path']} lists no units")
    if checkpoint_every is None:
        checkpoint_every = manifest.get("checkpoint_every")
    return run_supervised(
        units,
        Path(manifest["_path"]).parent,
        checkpoint_every=checkpoint_every,
        parallel=parallel,
        run_budget=run_budget,
        allow_partial=allow_partial,
        progress=progress,
    )
