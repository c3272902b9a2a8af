"""Parallel experiment engine: deterministic fan-out of scenario grids.

Every figure, sweep, and multi-seed trial decomposes into independent
*work units* — one ``(ScenarioConfig, replicate seed, scheduler set)``
tuple each — that share no state: the workload is rebuilt from the seed
inside the unit, and policies never see each other.  That shape is
embarrassingly parallel, and this module is the one place the repo
exploits it.

Design contract (the differential suite in
``tests/integration/test_parallel_parity.py`` asserts all of it):

**Determinism.**  A unit's outcome is a pure function of the unit alone.
The workload seed a unit simulates with is the caller's replicate seed,
verbatim; the engine additionally derives a stable 64-bit *unit seed*
(:func:`derive_unit_seed`, a blake2b hash over the canonical config
encoding) used for unit identity, cache keys, and any engine-internal
randomness.  Nothing — not the seed, not the result, not the order of
reassembly — ever depends on worker index, pool size, or completion
order, so serial (``parallel=1``, the degenerate case) and parallel runs
produce bit-identical JCTs.

**Caching.**  With a ``cache_dir``, each completed unit is persisted
under a fingerprint of (canonical config + scheduler set + code-version
salt).  Re-runs and resumed grids skip completed units; a salt bump (new
library version, or ``REPRO_CACHE_SALT``) invalidates everything, and a
corrupt or mismatched entry silently degrades to a miss and is
rewritten.

**Failure isolation.**  A unit that raises (or returns a payload that
fails validation) is retried up to ``retries`` times, with optional
exponential backoff between attempts; exhausted units land in the
report's structured ``failures`` list — offending config, error,
traceback, attempt count — without sinking sibling units.  A
``unit_timeout`` additionally bounds each attempt's wall-clock time:
hung workers are killed (the process pool is rebuilt and surviving
in-flight units resubmitted) and the unit is recorded as a structured
``UnitFailure(kind="timeout")`` instead of stalling the grid forever.

**Observability.**  Progress events stream through an injectable hook;
completed units, cache hits, retries, and worker utilization are
condensed into :class:`GridStats`, whose :meth:`GridStats.counters`
snapshot is the one counter surface (read by
:func:`repro.simulator.observability.parallel_counters` and
:func:`repro.metrics.serialize.grid_report_to_dict`).
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import multiprocessing
import os
import pickle
import traceback as traceback_module
from concurrent.futures import FIRST_COMPLETED, Executor, Future, wait
from concurrent.futures import ProcessPoolExecutor, ThreadPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, field
from pathlib import Path
from typing import (
    Any,
    Callable,
    Dict,
    List,
    Optional,
    Sequence,
    Tuple,
    Union,
)

from repro import __version__
from repro.errors import ExperimentError, GridExecutionError
from repro.experiments.common import ScenarioConfig, ScenarioResult, run_scenario
from repro.experiments.timing import host_clock, host_sleep

#: Bump when the cached payload layout changes (a cheap salt component).
CACHE_FORMAT = 1


# ----------------------------------------------------------------------
# Canonical encoding and seed derivation
# ----------------------------------------------------------------------
#: Config fields added after seed-derivation goldens were pinned, with the
#: defaults they must be omitted at.  Skipping them keeps the canonical
#: encoding — and every unit seed and cache fingerprint hashed from it —
#: byte-identical for configs that do not use the new features.
_EXTENSION_FIELD_DEFAULTS: Dict[str, Any] = {
    "fault_profile": "",
    "fault_intensity": 1.0,
    "fault_seed": 0,
    "link_capacity": 0.0,
}


def canonical_config(config: ScenarioConfig) -> str:
    """A canonical JSON encoding of every config field.

    Fields are emitted sorted by name with ``sort_keys=True``, so the
    encoding — and everything hashed from it — is insensitive to dict or
    field-declaration iteration order.  Extension fields sitting at their
    defaults are omitted entirely (see
    :data:`_EXTENSION_FIELD_DEFAULTS`), making the encoding stable across
    library versions that added them.
    """
    record: Dict[str, Any] = {}
    for f in dataclasses.fields(config):
        value = getattr(config, f.name)
        if (
            f.name in _EXTENSION_FIELD_DEFAULTS
            and value == _EXTENSION_FIELD_DEFAULTS[f.name]
        ):
            continue
        if isinstance(value, tuple):
            value = list(value)
        record[f.name] = value
    return json.dumps(record, sort_keys=True, separators=(",", ":"))


def _unit_identity(
    config: ScenarioConfig, seed: int, schedulers: Tuple[str, ...]
) -> str:
    effective = config.with_overrides(seed=seed)
    return json.dumps(
        {
            "config": json.loads(canonical_config(effective)),
            "schedulers": list(schedulers),
        },
        sort_keys=True,
        separators=(",", ":"),
    )


def derive_unit_seed(
    config: ScenarioConfig,
    seed: Optional[int] = None,
    schedulers: Optional[Sequence[str]] = None,
) -> int:
    """A stable 63-bit seed for one work unit.

    The derivation is a blake2b hash of the unit's canonical identity
    (config with the replicate ``seed`` applied, plus the scheduler
    set) — a pure function of the unit.  It is therefore identical
    across process-pool sizes, submission orderings, and worker
    assignment, and unique across units that differ in any field.  It is
    deliberately *salt-free*: seeds must not change when the code
    version (and hence the cache salt) does.
    """
    effective_seed = config.seed if seed is None else seed
    names = tuple(schedulers if schedulers is not None else config.schedulers)
    digest = hashlib.blake2b(
        _unit_identity(config, effective_seed, names).encode("utf-8"),
        digest_size=8,
    ).digest()
    return int.from_bytes(digest, "big") & 0x7FFF_FFFF_FFFF_FFFF


def default_cache_salt() -> str:
    """The fingerprint salt: code version, overridable for experiments.

    ``REPRO_CACHE_SALT`` overrides the default ``repro-<version>/<fmt>``
    salt — useful to segregate caches across uncommitted working trees.
    """
    override = os.environ.get("REPRO_CACHE_SALT")
    if override:
        return override
    return f"repro-{__version__}/fmt{CACHE_FORMAT}"


# ----------------------------------------------------------------------
# Work units
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class WorkUnit:
    """One independent grid cell: a scenario replayed under some seed.

    ``seed=None`` means "use the config's own seed"; a replicate seed
    overrides it (that is how trials fan one config across seeds).
    ``schedulers=None`` defers to ``config.schedulers``.
    """

    config: ScenarioConfig
    seed: Optional[int] = None
    schedulers: Optional[Tuple[str, ...]] = None
    label: str = ""

    @property
    def effective_seed(self) -> int:
        return self.config.seed if self.seed is None else self.seed

    def effective_config(self) -> ScenarioConfig:
        return self.config.with_overrides(seed=self.effective_seed)

    def scheduler_names(self) -> Tuple[str, ...]:
        return tuple(
            self.schedulers if self.schedulers is not None else self.config.schedulers
        )

    @property
    def derived_seed(self) -> int:
        """The unit's stable 63-bit identity seed (see :func:`derive_unit_seed`)."""
        return derive_unit_seed(self.config, self.seed, self.schedulers)

    def fingerprint(self, salt: Optional[str] = None) -> str:
        """The unit's cache key: identity + code-version salt."""
        salt = salt if salt is not None else default_cache_salt()
        identity = _unit_identity(
            self.config, self.effective_seed, self.scheduler_names()
        )
        return hashlib.blake2b(
            f"{identity}|salt={salt}".encode("utf-8"), digest_size=16
        ).hexdigest()

    def describe(self) -> str:
        name = self.label or self.effective_config().name
        return f"{name}[seed={self.effective_seed}]"


def execute_unit(unit: WorkUnit) -> ScenarioResult:
    """Run one work unit (the default worker task; pure, picklable)."""
    return run_scenario(unit.effective_config(), schedulers=unit.schedulers)


class UnitResultError(ExperimentError):
    """A worker returned a payload that fails validation."""


def validate_unit_result(unit: WorkUnit, result: object) -> ScenarioResult:
    """Reject corrupt worker payloads (wrong type, missing schedulers)."""
    if not isinstance(result, ScenarioResult):
        raise UnitResultError(
            f"unit {unit.describe()} returned {type(result).__name__}, "
            "expected ScenarioResult"
        )
    expected = set(unit.scheduler_names())
    got = set(result.results)
    if got != expected:
        raise UnitResultError(
            f"unit {unit.describe()} returned schedulers {sorted(got)}, "
            f"expected {sorted(expected)}"
        )
    for name, sim in sorted(result.results.items()):
        jct = sim.average_jct()
        # NaN/inf validity probe below is not a time comparison.
        if not jct > 0.0 or jct != jct or jct == float("inf"):  # simlint: ignore[SIM302]
            raise UnitResultError(
                f"unit {unit.describe()} has non-finite average JCT for "
                f"{name!r}: {jct!r}"
            )
    return result


# ----------------------------------------------------------------------
# Result cache
# ----------------------------------------------------------------------
class ResultCache:
    """On-disk unit results, keyed by canonical scenario fingerprint.

    Entries are pickle payloads (``{"format", "fingerprint", "result"}``)
    written atomically.  The fingerprint embeds the salt, so version
    bumps change the key and naturally invalidate: stale entries are
    simply never looked up again.  A *format* mismatch (version skew, a
    legitimately old entry) degrades to a plain miss; an entry that
    exists but fails to unpickle, fails validation, or carries a
    mismatched fingerprint is **quarantined** — renamed to
    ``<key>.corrupt`` and counted in :attr:`corrupt_entries` — so a
    damaged file is inspected once instead of silently re-missing on
    every run, and the slot is free for an atomic rewrite.
    """

    def __init__(
        self, root: Union[str, Path], salt: Optional[str] = None
    ) -> None:
        self.root = Path(root)
        self.salt = salt if salt is not None else default_cache_salt()
        #: corrupt entries quarantined by :meth:`load` over this
        #: instance's lifetime (surfaced as ``GridStats.cache_corrupt``)
        self.corrupt_entries = 0

    def path_for(self, unit: WorkUnit) -> Path:
        # The REPRO_CACHE_SALT env override feeding self.salt is the
        # documented cache-namespace knob: it only renames cache entries
        # and never reaches unit seeds or results.
        return self.root / f"{unit.fingerprint(self.salt)}.pkl"  # simlint: ignore[SIM103]

    def _quarantine(self, path: Path) -> None:
        """Move a damaged entry aside (best effort; miss either way)."""
        try:
            os.replace(path, path.with_suffix(".corrupt"))
        except OSError:
            return  # a concurrent reader may have renamed it already
        self.corrupt_entries += 1

    def load(self, unit: WorkUnit) -> Optional[ScenarioResult]:
        path = self.path_for(unit)
        try:
            raw = path.read_bytes()
        except OSError:
            return None  # plain miss: nothing on disk for this key
        try:
            payload = pickle.loads(raw)
        except (pickle.UnpicklingError, EOFError, AttributeError,
                ImportError, IndexError, ValueError):
            self._quarantine(path)  # truncated or garbled bytes
            return None
        if not isinstance(payload, dict):
            self._quarantine(path)
            return None
        if payload.get("format") != CACHE_FORMAT:
            return None  # version skew, not damage: a plain miss
        # Salt in the stored fingerprint: namespace check only (see path_for).
        if payload.get("fingerprint") != unit.fingerprint(self.salt):  # simlint: ignore[SIM103]
            self._quarantine(path)  # entry does not match its own key
            return None
        try:
            return validate_unit_result(unit, payload.get("result"))
        except UnitResultError:
            self._quarantine(path)
            return None

    def store(self, unit: WorkUnit, result: ScenarioResult) -> Path:
        path = self.path_for(unit)
        path.parent.mkdir(parents=True, exist_ok=True)
        payload = pickle.dumps(
            {
                "format": CACHE_FORMAT,
                # Salt namespaces the entry; the result it guards is a pure
                # function of the unit (see module docstring).
                "fingerprint": unit.fingerprint(self.salt),  # simlint: ignore[SIM103]
                "result": result,
            }
        )
        tmp = path.with_suffix(f".tmp.{os.getpid()}")
        tmp.write_bytes(payload)
        os.replace(tmp, path)
        return path


# ----------------------------------------------------------------------
# Reports
# ----------------------------------------------------------------------
@dataclass
class UnitFailure:
    """One unit that exhausted its retries (or its wall-clock budget)."""

    index: int
    unit: WorkUnit
    error: str
    traceback: str
    attempts: int
    #: "error" (raised / failed validation), "timeout" (attempt killed
    #: after exceeding the per-unit wall-clock budget), "crash" (worker
    #: process died mid-attempt and retries ran out), or "budget" (the
    #: grid's run budget expired before the unit could finish)
    kind: str = "error"
    #: wall-clock seconds of every observed attempt, in attempt order —
    #: including attempts voided by a pool rebuild (their wall time was
    #: genuinely spent).  Empty when no attempt was launched at all.
    attempt_seconds: List[float] = field(default_factory=list)

    def to_dict(self) -> Dict[str, Any]:
        return {
            "index": self.index,
            "unit": self.unit.describe(),
            "config": json.loads(canonical_config(self.unit.effective_config())),
            "schedulers": list(self.unit.scheduler_names()),
            "error": self.error,
            "kind": self.kind,
            "attempts": self.attempts,
            "attempt_seconds": list(self.attempt_seconds),
            "traceback": self.traceback,
        }


@dataclass
class GridStats:
    """One grid run's bookkeeping (the engine's observability surface)."""

    total_units: int = 0
    completed: int = 0  #: units with a result (cache hits included)
    cache_hits: int = 0
    #: corrupt cache entries quarantined during the cache pass
    cache_corrupt: int = 0
    retries: int = 0
    failures: int = 0
    #: failures caused by the per-unit wall-clock timeout (subset of
    #: ``failures``); each one killed and rebuilt the worker pool
    timeouts: int = 0
    #: worker-process deaths detected (pool rebuilt, victims resubmitted)
    worker_crashes: int = 0
    #: units abandoned because the grid's wall-clock run budget expired
    #: (subset of ``failures``; recorded as ``kind="budget"``)
    abandoned: int = 0
    workers: int = 1
    #: summed per-unit wall time measured inside the workers (host clock)
    unit_seconds: float = 0.0
    #: wall time of the whole grid as seen by the submitting process
    elapsed_seconds: float = 0.0

    @property
    def worker_utilization(self) -> float:
        """Fraction of the pool's capacity spent simulating (0..1)."""
        capacity = self.workers * self.elapsed_seconds
        if capacity <= 0.0:
            return 0.0
        return min(1.0, self.unit_seconds / capacity)

    def counters(self) -> Dict[str, float]:
        """The grid's counters as one flat, JSON-safe snapshot.

        Keys are the field names.  Counts stay ints; the timings and
        ``worker_utilization`` (the fraction of ``workers × elapsed``
        wall time spent simulating) are floats.
        """
        return {
            "total_units": self.total_units,
            "completed": self.completed,
            "cache_hits": self.cache_hits,
            "retries": self.retries,
            "failures": self.failures,
            "workers": self.workers,
            "cache_corrupt": self.cache_corrupt,
            "worker_crashes": self.worker_crashes,
            "abandoned": self.abandoned,
            "unit_seconds": self.unit_seconds,
            "elapsed_seconds": self.elapsed_seconds,
            "worker_utilization": self.worker_utilization,
        }


@dataclass
class ProgressEvent:
    """One engine progress tick, streamed to the ``progress`` hook."""

    #: "cache-hit" | "done" | "retry" | "failed" | "timeout" |
    #: "crash" | "abandoned"
    kind: str
    index: int
    unit: WorkUnit
    completed: int
    total: int


ProgressHook = Callable[[ProgressEvent], None]


@dataclass
class GridReport:
    """Everything one grid run produced, reassembled in submission order."""

    units: List[WorkUnit]
    results: List[Optional[ScenarioResult]]
    failures: List[UnitFailure] = field(default_factory=list)
    stats: GridStats = field(default_factory=GridStats)

    @property
    def ok(self) -> bool:
        return not self.failures

    def scenario_results(self) -> List[ScenarioResult]:
        """All results, in unit order; raises if any unit failed."""
        if self.failures:
            summary = "; ".join(
                f"{f.unit.describe()}: {f.error}" for f in self.failures
            )
            raise GridExecutionError(
                f"{len(self.failures)} of {len(self.units)} work units "
                f"failed after retries: {summary}",
                failures=self.failures,
            )
        return [r for r in self.results if r is not None]

    def failure_report(self) -> Dict[str, Any]:
        """The structured failures report (JSON-safe)."""
        return {
            "total_units": self.stats.total_units,
            "completed": self.stats.completed,
            "failed": self.stats.failures,
            "failures": [f.to_dict() for f in self.failures],
        }


# ----------------------------------------------------------------------
# Execution
# ----------------------------------------------------------------------
def _run_timed(
    run_unit: Callable[[WorkUnit], ScenarioResult], unit: WorkUnit
) -> Tuple[ScenarioResult, float]:
    """Worker entry point: run one unit and report its wall duration."""
    started = host_clock()
    result = run_unit(unit)
    return result, host_clock() - started


class _InlineExecutor(Executor):
    """The serial degenerate case: submit() runs the task immediately.

    Routing ``parallel=1`` through the same submit/wait/retry loop as the
    pools keeps serial execution a true degenerate case of the engine
    rather than a separate code path.
    """

    def submit(self, fn: Callable[..., Any], /, *args: Any, **kwargs: Any) -> "Future[Any]":
        future: "Future[Any]" = Future()
        try:
            future.set_result(fn(*args, **kwargs))
        except BaseException as exc:  # noqa: BLE001 — mirrored into the future
            future.set_exception(exc)
        return future


def _make_executor(workers: int, use_threads: bool) -> Executor:
    if workers <= 1:
        return _InlineExecutor()
    if use_threads:
        return ThreadPoolExecutor(max_workers=workers)
    context: Optional[multiprocessing.context.BaseContext] = None
    if "fork" in multiprocessing.get_all_start_methods():
        # Fork keeps worker startup cheap and lets tests inject
        # module-level task callables without import gymnastics.
        context = multiprocessing.get_context("fork")
    return ProcessPoolExecutor(max_workers=workers, mp_context=context)


#: Monkeypatchable sleep used for retry backoff (host wall-clock,
#: concentrated in :mod:`repro.experiments.timing`; the engine's timings
#: are reporting-only and never feed simulation state).
_sleep = host_sleep

#: Namespace for the deterministic retry-jitter stream (bump on change).
_RETRY_JITTER_NAMESPACE = "repro.retry-jitter.v1"


def retry_jitter(unit: WorkUnit, attempt: int) -> float:
    """Deterministic backoff multiplier in ``[0.5, 1.5)`` for one retry.

    A blake2b hash over the unit's identity seed and the attempt number —
    a pure function of the unit, never of host state — so resubmitted
    workers spread out instead of retrying in lockstep (the thundering
    herd after a shared-resource hiccup), while the same grid replays
    with an identical backoff schedule every time.  The stream only
    shapes *when* a retry launches; results never depend on it.
    """
    digest = hashlib.blake2b(
        f"{_RETRY_JITTER_NAMESPACE}|{unit.derived_seed}|{attempt}".encode("utf-8"),
        digest_size=8,
    ).digest()
    return 0.5 + int.from_bytes(digest, "big") / 2.0**64


def run_grid(
    units: Sequence[WorkUnit],
    parallel: int = 1,
    cache_dir: Optional[Union[str, Path]] = None,
    cache: Optional[ResultCache] = None,
    retries: int = 1,
    backoff_base: float = 0.0,
    unit_timeout: Optional[float] = None,
    run_unit: Callable[[WorkUnit], ScenarioResult] = execute_unit,
    use_threads: bool = False,
    progress: Optional[ProgressHook] = None,
    clock: Optional[Callable[[], float]] = None,
    budget: Optional[float] = None,
) -> GridReport:
    """Execute a grid of work units, fanned across ``parallel`` workers.

    Results come back in submission order regardless of completion
    order.  ``cache_dir`` (or an explicit ``cache``) enables the on-disk
    result cache; ``retries`` bounds re-execution of failing units (the
    default is exactly one retry) and ``backoff_base`` spaces the
    attempts exponentially (the k-th retry waits ``backoff_base *
    2**(k-1)`` seconds scaled by the unit's deterministic
    :func:`retry_jitter`; 0 retries immediately); ``unit_timeout``
    bounds each attempt's wall-clock seconds — an attempt that exceeds
    it is recorded as a ``UnitFailure(kind="timeout")`` without
    retrying, and with a process pool the hung workers are killed, the
    pool rebuilt, and surviving in-flight units resubmitted (thread and
    inline executors cannot be killed; their hung attempt is abandoned
    and its eventual result discarded); a worker process that *dies*
    mid-attempt (OOM kill, segfault) is detected, the pool rebuilt, and
    every interrupted unit re-attempted against its retry allowance
    (exhausted ones land as ``kind="crash"``); ``use_threads`` swaps the
    process pool for threads (used by fault-injection tests to share
    state with a custom ``run_unit``); ``clock`` injects the host clock
    used for reporting-only timings; ``budget`` bounds the whole grid's
    wall-clock seconds — at expiry, nothing new launches and every
    pending unit is recorded as ``kind="budget"`` (``stats.abandoned``)
    so a supervised run can checkpoint-then-stop instead of overrunning
    its slot.
    """
    units = list(units)
    tick = clock if clock is not None else host_clock
    started = tick()
    if cache is None and cache_dir is not None:
        cache = ResultCache(cache_dir)
    if retries < 0:
        raise ExperimentError(f"retries must be >= 0, got {retries}")
    if backoff_base < 0:
        raise ExperimentError(f"backoff_base must be >= 0, got {backoff_base}")
    if unit_timeout is not None and unit_timeout <= 0:
        raise ExperimentError(
            f"unit_timeout must be positive, got {unit_timeout}"
        )
    if budget is not None and budget <= 0:
        raise ExperimentError(f"budget must be positive, got {budget}")
    budget_deadline = started + budget if budget is not None else None
    corrupt_before = cache.corrupt_entries if cache is not None else 0
    stats = GridStats(total_units=len(units), workers=max(1, parallel))
    results: List[Optional[ScenarioResult]] = [None] * len(units)
    failures: List[UnitFailure] = []

    def notify(kind: str, index: int) -> None:
        if progress is not None:
            progress(
                ProgressEvent(
                    kind=kind,
                    index=index,
                    unit=units[index],
                    completed=stats.completed,
                    total=stats.total_units,
                )
            )

    # Cache pass: answer what we can before spinning up any worker.
    to_run: List[int] = []
    for index, unit in enumerate(units):
        cached = cache.load(unit) if cache is not None else None
        if cached is not None:
            results[index] = cached
            stats.cache_hits += 1
            stats.completed += 1
            notify("cache-hit", index)
        else:
            to_run.append(index)

    if to_run:
        executor = _make_executor(parallel, use_threads)
        in_flight: Dict["Future[Tuple[ScenarioResult, float]]", Tuple[int, int]] = {}
        #: wall-clock deadline per in-flight attempt (unit_timeout only)
        deadlines: Dict["Future[Tuple[ScenarioResult, float]]", float] = {}
        #: launch timestamp per in-flight attempt (attempt_seconds source)
        launched: Dict["Future[Tuple[ScenarioResult, float]]", float] = {}
        #: backoff-delayed retries waiting to launch: (ready_time, index, attempt)
        retry_queue: List[Tuple[float, int, int]] = []
        #: observed wall time of every attempt, per unit index
        attempt_log: Dict[int, List[float]] = {}

        def log_attempt(index: int, seconds: float) -> None:
            attempt_log.setdefault(index, []).append(seconds)

        def submit(index: int, attempt: int) -> None:
            try:
                future = executor.submit(_run_timed, run_unit, units[index])
            except Exception as exc:  # pool broken: fail without retrying
                failures.append(
                    UnitFailure(
                        index=index,
                        unit=units[index],
                        error=f"{type(exc).__name__}: {exc}",
                        traceback=traceback_module.format_exc(),
                        attempts=attempt,
                        attempt_seconds=attempt_log.get(index, []),
                    )
                )
                stats.failures += 1
                notify("failed", index)
            else:
                in_flight[future] = (index, attempt)
                launched[future] = tick()
                if unit_timeout is not None:
                    deadlines[future] = tick() + unit_timeout

        def schedule_retry(index: int, attempt: int) -> None:
            stats.retries += 1
            notify("retry", index)
            delay = backoff_base * 2.0 ** (attempt - 1) if backoff_base > 0 else 0.0
            if delay > 0.0:
                # Deterministic per-unit jitter keeps resubmissions from
                # retrying in lockstep while staying replayable.
                delay *= retry_jitter(units[index], attempt)
            if delay <= 0.0:
                submit(index, attempt=attempt + 1)
            else:
                retry_queue.append((tick() + delay, index, attempt + 1))

        def drain_pool() -> List[Tuple[int, int]]:
            """Kill the pool's processes; returns the voided attempts.

            Every in-flight attempt is logged (its wall time was spent)
            and cleared; the executor is rebuilt.  Thread and inline
            executors have no processes to kill but are still swapped so
            the caller can resubmit uniformly.
            """
            nonlocal executor
            now = tick()
            victims: List[Tuple[int, int]] = []
            for future, (vindex, vattempt) in in_flight.items():
                victims.append((vindex, vattempt))
                log_attempt(vindex, now - launched.get(future, now))
            in_flight.clear()
            deadlines.clear()
            launched.clear()
            processes = getattr(executor, "_processes", None) or {}
            for process in list(processes.values()):
                process.terminate()
            executor.shutdown(wait=False)
            executor = _make_executor(parallel, use_threads)
            return sorted(victims)

        def kill_hung_workers() -> None:
            """Tear down the pool under the hung attempts, then rebuild.

            A process pool gives no per-task kill, so every worker dies
            with the hung ones; surviving in-flight attempts restart from
            scratch (their work so far is lost, their attempt count and
            timeout budget reset — the units are pure, so a rerun is
            safe).  Thread and inline executors have nothing to kill.
            """
            if not isinstance(executor, ProcessPoolExecutor):
                return
            for index, attempt in drain_pool():
                submit(index, attempt)

        def recover_from_crash(first_index: int, first_attempt: int) -> None:
            """A worker process died: rebuild the pool, re-attempt victims.

            Every future on the broken pool fails together, so all
            in-flight attempts are voided and re-attempted against their
            retry allowance; units that exhausted it are recorded as
            ``kind="crash"`` — the structured taxonomy a supervisor needs
            to tell a dead worker from a bad unit.
            """
            stats.worker_crashes += 1
            victims = sorted(set([(first_index, first_attempt)] + drain_pool()))
            for index, attempt in victims:
                if attempt <= retries:
                    schedule_retry(index, attempt)
                else:
                    failures.append(
                        UnitFailure(
                            index=index,
                            unit=units[index],
                            error=(
                                "worker process died mid-attempt "
                                "(pool was rebuilt)"
                            ),
                            traceback="",
                            attempts=attempt,
                            kind="crash",
                            attempt_seconds=attempt_log.get(index, []),
                        )
                    )
                    stats.failures += 1
                    notify("crash", index)

        def abandon_pending() -> None:
            """The run budget expired: record everything pending, stop."""
            nonlocal retry_queue
            pending = drain_pool()
            pending += [(index, attempt - 1) for _, index, attempt in retry_queue]
            retry_queue = []
            for index, attempt in sorted(pending):
                failures.append(
                    UnitFailure(
                        index=index,
                        unit=units[index],
                        error=(
                            f"grid run budget of {budget}s expired before "
                            "this unit completed"
                        ),
                        traceback="",
                        attempts=attempt,
                        kind="budget",
                        attempt_seconds=attempt_log.get(index, []),
                    )
                )
                stats.failures += 1
                stats.abandoned += 1
                notify("abandoned", index)

        try:
            for index in to_run:
                submit(index, attempt=1)

            while in_flight or retry_queue:
                if budget_deadline is not None and tick() >= budget_deadline:
                    abandon_pending()
                    break
                # Launch every backoff-delayed retry whose time has come.
                if retry_queue:
                    now = tick()
                    due = [r for r in retry_queue if r[0] <= now]
                    retry_queue = [r for r in retry_queue if r[0] > now]
                    for _, index, attempt in sorted(due):
                        submit(index, attempt)
                if not in_flight:
                    if retry_queue:
                        wake_at = min(r[0] for r in retry_queue)
                        if budget_deadline is not None:
                            wake_at = min(wake_at, budget_deadline)
                        _sleep(max(0.0, wake_at - tick()))
                    continue

                wait_timeout: Optional[float] = None
                now = tick()
                if deadlines:
                    wait_timeout = max(0.0, min(deadlines.values()) - now)
                if retry_queue:
                    until_retry = max(0.0, min(r[0] for r in retry_queue) - now)
                    wait_timeout = (
                        until_retry
                        if wait_timeout is None
                        else min(wait_timeout, until_retry)
                    )
                if budget_deadline is not None:
                    until_budget = max(0.0, budget_deadline - now)
                    wait_timeout = (
                        until_budget
                        if wait_timeout is None
                        else min(wait_timeout, until_budget)
                    )
                done, _ = wait(
                    set(in_flight),
                    timeout=wait_timeout,
                    return_when=FIRST_COMPLETED,
                )
                for future in done:
                    if future not in in_flight:
                        continue  # voided by a pool rebuild this sweep
                    index, attempt = in_flight.pop(future)
                    deadlines.pop(future, None)
                    now = tick()
                    elapsed = now - launched.pop(future, now)
                    try:
                        payload, seconds = future.result()
                        validate_unit_result(units[index], payload)
                    except BrokenProcessPool:
                        log_attempt(index, elapsed)
                        recover_from_crash(index, attempt)
                        break  # in_flight was voided; re-enter the wait loop
                    except Exception as exc:  # raised in worker or validation
                        log_attempt(index, elapsed)
                        if attempt <= retries:
                            schedule_retry(index, attempt)
                        else:
                            failures.append(
                                UnitFailure(
                                    index=index,
                                    unit=units[index],
                                    error=f"{type(exc).__name__}: {exc}",
                                    traceback="".join(
                                        traceback_module.format_exception(
                                            type(exc), exc, exc.__traceback__
                                        )
                                    ),
                                    attempts=attempt,
                                    attempt_seconds=attempt_log.get(index, []),
                                )
                            )
                            stats.failures += 1
                            notify("failed", index)
                    else:
                        log_attempt(index, seconds)
                        results[index] = payload
                        stats.completed += 1
                        stats.unit_seconds += seconds
                        if cache is not None:
                            cache.store(units[index], payload)
                        notify("done", index)

                # Timeout sweep: declare every overdue attempt hung.
                if deadlines:
                    now = tick()
                    expired = sorted(
                        (in_flight[future], future)
                        for future, deadline in deadlines.items()
                        if deadline <= now and not future.done()
                    )
                    for (index, attempt), future in expired:
                        in_flight.pop(future, None)
                        deadlines.pop(future, None)
                        log_attempt(index, now - launched.pop(future, now))
                        future.cancel()  # no-op once running; frees queued ones
                        failures.append(
                            UnitFailure(
                                index=index,
                                unit=units[index],
                                error=(
                                    f"unit exceeded its {unit_timeout}s "
                                    "wall-clock timeout"
                                ),
                                traceback="",
                                attempts=attempt,
                                kind="timeout",
                                attempt_seconds=attempt_log.get(index, []),
                            )
                        )
                        stats.failures += 1
                        stats.timeouts += 1
                        notify("timeout", index)
                    if expired:
                        kill_hung_workers()
        finally:
            executor.shutdown(wait=True)

    failures.sort(key=lambda f: f.index)
    if cache is not None:
        stats.cache_corrupt = cache.corrupt_entries - corrupt_before
    stats.elapsed_seconds = tick() - started
    return GridReport(
        units=units, results=results, failures=failures, stats=stats
    )


def grid_of(
    configs: Sequence[ScenarioConfig],
    seeds: Optional[Sequence[int]] = None,
    schedulers: Optional[Sequence[str]] = None,
) -> List[WorkUnit]:
    """The cross product of configs × seeds as work units, in grid order."""
    names = tuple(schedulers) if schedulers is not None else None
    units: List[WorkUnit] = []
    for config in configs:
        for seed in seeds if seeds is not None else (None,):
            units.append(WorkUnit(config=config, seed=seed, schedulers=names))
    return units


__all__ = [
    "CACHE_FORMAT",
    "GridReport",
    "GridStats",
    "ProgressEvent",
    "ResultCache",
    "UnitFailure",
    "UnitResultError",
    "WorkUnit",
    "canonical_config",
    "default_cache_salt",
    "derive_unit_seed",
    "execute_unit",
    "grid_of",
    "retry_jitter",
    "run_grid",
    "validate_unit_result",
]
