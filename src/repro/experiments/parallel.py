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
verbatim.  The unit's identity and cache key is
:meth:`WorkUnit.fingerprint`, a blake2b hash over the canonical config
encoding, the scheduler set and a code-version salt.  Nothing — not the
result, not the order of reassembly — ever depends on worker index, pool
size, or completion order, so serial (``parallel=1``) and parallel runs
produce bit-identical JCTs.

**One launch loop.**  Pending attempts wait in one queue.  Each pass of
:func:`run_grid` checks the run budget, launches, waits, and handles the
attempts that finished: a result is stored (and cached) at once, a
retry goes back to the front of the queue.  A serial grid keeps one
attempt in flight and runs it in this process, so unit k is stored, and
the budget checked, before unit k+1 starts; a process pool takes every
pending attempt at once.

**Caching.**  With a ``cache_dir``, each completed unit is persisted
under a fingerprint of (canonical config + scheduler set + code-version
salt).  Re-runs and resumed grids skip completed units; a salt bump (new
library version, or ``REPRO_CACHE_SALT``) invalidates everything, and a
corrupt or mismatched entry silently degrades to a miss and is
rewritten.

**Failure isolation.**  A unit that raises (or returns a payload that
fails validation) is retried :data:`RETRIES` time(s), each retry
launched at once; exhausted units land in the report's structured
``failures`` list — offending config, error, traceback, attempt count —
without sinking sibling units.  A worker process that dies breaks its
pool: the pool is rebuilt and every attempt then in flight is charged a
retry.  The grid's ``budget`` is its one wall-clock bound: at expiry
nothing new launches, a pool's running attempts are killed, and every
unit without a result is recorded as ``UnitFailure(kind="budget")``.  A
serial grid cannot stop the unit it is running; it stops at the next
launch.

**Observability.**  Progress events stream through an injectable hook;
completed units, cache hits, retries, and worker utilization are
condensed into :class:`GridStats`, whose :meth:`GridStats.counters`
snapshot is the one counter surface (serialized with the failures by
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
from collections import deque
from concurrent.futures import FIRST_COMPLETED, Executor, Future, wait
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, field
from pathlib import Path
from typing import (
    Any,
    Callable,
    Deque,
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
from repro.experiments.timing import host_clock

#: Bump when the cached payload layout changes (a cheap salt component).
CACHE_FORMAT = 1


# ----------------------------------------------------------------------
# Canonical encoding
# ----------------------------------------------------------------------
#: Config fields added after the fingerprint goldens were pinned, with the
#: defaults they must be omitted at.  Skipping them keeps the canonical
#: encoding — and every cache fingerprint hashed from it — byte-identical
#: for configs that do not use the new features.
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

    def fingerprint(self, salt: Optional[str] = None) -> str:
        """The unit's identity and cache key.

        A blake2b hash of the canonical effective config (replicate seed
        applied), the scheduler set and the code-version salt: a pure
        function of the unit, never of pool size, worker or grid order.
        """
        salt = salt if salt is not None else default_cache_salt()
        identity = json.dumps(
            {
                "config": json.loads(canonical_config(self.effective_config())),
                "schedulers": list(self.scheduler_names()),
            },
            sort_keys=True,
            separators=(",", ":"),
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
        # and never reaches seeds or results.
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
    """One unit that exhausted its retries (or the grid's run budget)."""

    index: int
    unit: WorkUnit
    error: str
    traceback: str
    attempts: int
    #: "error" (raised / failed validation), "crash" (worker process
    #: died mid-attempt and retries ran out), or "budget" (the grid's
    #: run budget expired before the unit could finish)
    kind: str = "error"
    #: wall-clock seconds of every observed attempt, in attempt order —
    #: including attempts voided by a pool rebuild (their wall time was
    #: genuinely spent).  Empty, with ``attempts == 0``, when no attempt
    #: was launched at all.
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

    #: "cache-hit" | "done" | "retry" | "failed" | "crash" | "abandoned"
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


# ----------------------------------------------------------------------
# Execution
# ----------------------------------------------------------------------
#: Re-attempts a unit gets after a failed attempt (a raise, an invalid
#: payload, or a worker death) before it is recorded as failed.
RETRIES = 1

#: The progress event that announces each :class:`UnitFailure` kind.
_FAILURE_EVENTS = {"error": "failed", "crash": "crash", "budget": "abandoned"}


def _run_timed(
    run_unit: Callable[[WorkUnit], ScenarioResult], unit: WorkUnit
) -> Tuple[ScenarioResult, float]:
    """Worker entry point: run one unit and report its wall duration."""
    started = host_clock()
    result = run_unit(unit)
    return result, host_clock() - started


class _InlineExecutor(Executor):
    """The serial executor: submit() runs the task in this process."""

    def submit(self, fn: Callable[..., Any], /, *args: Any, **kwargs: Any) -> "Future[Any]":
        future: "Future[Any]" = Future()
        try:
            future.set_result(fn(*args, **kwargs))
        except BaseException as exc:  # noqa: BLE001 — mirrored into the future
            future.set_exception(exc)
        return future


def _make_executor(workers: int) -> Executor:
    if workers <= 1:
        return _InlineExecutor()
    context: Optional[multiprocessing.context.BaseContext] = None
    if "fork" in multiprocessing.get_all_start_methods():
        # Fork keeps worker startup cheap and lets tests inject
        # module-level task callables without import gymnastics.
        context = multiprocessing.get_context("fork")
    return ProcessPoolExecutor(max_workers=workers, mp_context=context)


def run_grid(
    units: Sequence[WorkUnit],
    parallel: int = 1,
    cache_dir: Optional[Union[str, Path]] = None,
    cache: Optional[ResultCache] = None,
    *,
    run_unit: Callable[[WorkUnit], ScenarioResult] = execute_unit,
    progress: Optional[ProgressHook] = None,
    budget: Optional[float] = None,
) -> GridReport:
    """Execute a grid of work units, fanned across ``parallel`` workers.

    Results come back in submission order regardless of completion
    order.  ``cache_dir`` (or an explicit ``cache``) enables the on-disk
    result cache; each result is stored as soon as it arrives.  A failed
    attempt is retried :data:`RETRIES` time(s), launched at once.  A
    worker process that *dies* mid-attempt (OOM kill, segfault) breaks
    the pool: it is rebuilt, and every attempt then in flight is charged
    a retry (exhausted ones land as ``kind="crash"``).  ``budget`` bounds
    the whole grid's wall-clock seconds: at expiry nothing new launches,
    the pool's running attempts are killed, and every unit without a
    result is recorded as ``kind="budget"`` (``stats.abandoned``) — with
    ``attempts == 0`` if it never launched — so a supervised run can
    stop without losing its finished units.

    ``parallel=1`` runs one attempt at a time in this process: unit k is
    stored, and the budget checked, before unit k+1 starts.  A serial
    grid cannot interrupt the unit it is running; it stops launching at
    the budget.  A pool takes every pending attempt at once.
    """
    units = list(units)
    started = host_clock()
    if cache is None and cache_dir is not None:
        cache = ResultCache(cache_dir)
    if budget is not None and budget <= 0:
        raise ExperimentError(f"budget must be positive, got {budget}")
    deadline = started + budget if budget is not None else None
    serial = parallel <= 1
    corrupt_before = cache.corrupt_entries if cache is not None else 0
    stats = GridStats(total_units=len(units), workers=max(1, parallel))
    results: List[Optional[ScenarioResult]] = [None] * len(units)
    failures: List[UnitFailure] = []
    #: observed wall time of every attempt, per unit index
    attempt_log: Dict[int, List[float]] = {}

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

    def fail(index: int, attempts: int, kind: str, error: str, trace: str = "") -> None:
        failures.append(
            UnitFailure(
                index=index,
                unit=units[index],
                error=error,
                traceback=trace,
                attempts=attempts,
                kind=kind,
                attempt_seconds=attempt_log.get(index, []),
            )
        )
        stats.failures += 1
        if kind == "budget":
            stats.abandoned += 1
        notify(_FAILURE_EVENTS[kind], index)

    # Cache pass: answer what we can before launching anything.
    #: (unit index, attempt number) of every attempt not yet launched
    pending: Deque[Tuple[int, int]] = deque()
    for index, unit in enumerate(units):
        cached = cache.load(unit) if cache is not None else None
        if cached is not None:
            results[index] = cached
            stats.cache_hits += 1
            stats.completed += 1
            notify("cache-hit", index)
        else:
            pending.append((index, 1))

    executor = _make_executor(parallel)
    #: (unit index, attempt number, launch time) per running attempt
    in_flight: Dict["Future[Tuple[ScenarioResult, float]]", Tuple[int, int, float]] = {}

    def void_in_flight() -> List[Tuple[int, int]]:
        """Kill the pool under every running attempt and rebuild it.

        Returns the voided attempts; their wall time is logged, since it
        was genuinely spent.  A process pool gives no per-task kill.
        """
        nonlocal executor
        now = host_clock()
        voided: List[Tuple[int, int]] = []
        for index, attempt, launched in in_flight.values():
            attempt_log.setdefault(index, []).append(now - launched)
            voided.append((index, attempt))
        in_flight.clear()
        processes = getattr(executor, "_processes", None) or {}
        for process in list(processes.values()):
            process.terminate()
        executor.shutdown(wait=False)
        executor = _make_executor(parallel)
        return sorted(voided)

    def launch(index: int, attempt: int) -> None:
        """Submit one attempt; a submit that raises fails the unit."""
        launched = host_clock()
        try:
            # A supervised run's worker carries REPRO_CACHE_SALT (via the
            # manifest salt): it names checkpoint and partial files and
            # never reaches seeds or results, as in ResultCache.path_for.
            future = executor.submit(_run_timed, run_unit, units[index])  # simlint: ignore[SIM103]
        except Exception as exc:  # pool broken: fail without retrying
            fail(
                index,
                attempt,
                "error",
                f"{type(exc).__name__}: {exc}",
                traceback_module.format_exc(),
            )
        else:
            in_flight[future] = (index, attempt, launched)

    try:
        while pending or in_flight:
            # 1. Budget: at expiry, record every unit without a result.
            if deadline is not None and host_clock() >= deadline:
                unfinished = void_in_flight() + [
                    (index, attempt - 1) for index, attempt in pending
                ]
                for index, attempts in sorted(unfinished):
                    fail(
                        index,
                        attempts,
                        "budget",
                        f"grid run budget of {budget}s expired before this "
                        "unit completed",
                    )
                break
            # 2. Launch: a pool takes every pending attempt, serial one.
            while pending and not (serial and in_flight):
                launch(*pending.popleft())
            if not in_flight:
                break  # every launch failed
            # 3. Wait for an attempt to finish, or for the budget.
            timeout = None if deadline is None else max(0.0, deadline - host_clock())
            done, _ = wait(set(in_flight), timeout=timeout, return_when=FIRST_COMPLETED)
            # 4. Handle what finished, in unit order.
            retries: List[Tuple[int, int]] = []
            crashed: List[Tuple[int, int]] = []
            for future in sorted(done, key=lambda f: in_flight[f][0]):
                index, attempt, launched = in_flight.pop(future)
                attempt_log.setdefault(index, []).append(host_clock() - launched)
                try:
                    payload, seconds = future.result()
                    validate_unit_result(units[index], payload)
                except BrokenProcessPool:
                    crashed.append((index, attempt))
                except Exception as exc:  # raised in worker or validation
                    if attempt <= RETRIES:
                        retries.append((index, attempt))
                    else:
                        fail(
                            index,
                            attempt,
                            "error",
                            f"{type(exc).__name__}: {exc}",
                            "".join(
                                traceback_module.format_exception(
                                    type(exc), exc, exc.__traceback__
                                )
                            ),
                        )
                else:
                    results[index] = payload
                    stats.completed += 1
                    stats.unit_seconds += seconds
                    if cache is not None:
                        cache.store(units[index], payload)  # simlint: ignore[SIM101] (the host clock only bounds how long wait() blocks; the payload is the worker's result)
                    notify("done", index)
            if crashed:
                # A dead worker fails every future of its pool together.
                stats.worker_crashes += 1
                for index, attempt in sorted(crashed + void_in_flight()):
                    if attempt <= RETRIES:
                        retries.append((index, attempt))
                    else:
                        fail(
                            index,
                            attempt,
                            "crash",
                            "worker process died mid-attempt (pool was rebuilt)",
                        )
            # Retries go to the front of the queue: they launch next.
            retries.sort()
            for index, _ in retries:
                stats.retries += 1
                notify("retry", index)
            pending.extendleft((index, attempt + 1) for index, attempt in reversed(retries))
    finally:
        executor.shutdown(wait=True)

    failures.sort(key=lambda f: f.index)
    if cache is not None:
        stats.cache_corrupt = cache.corrupt_entries - corrupt_before
    stats.elapsed_seconds = host_clock() - started
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
    "RETRIES",
    "ResultCache",
    "UnitFailure",
    "UnitResultError",
    "WorkUnit",
    "canonical_config",
    "default_cache_salt",
    "execute_unit",
    "grid_of",
    "run_grid",
    "validate_unit_result",
]
