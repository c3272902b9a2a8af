"""Failure isolation of the parallel grid engine's launch loop.

Covers the serial path's run budget and its store-before-next order,
worker deaths and budget kills on a real 2-process pool, corrupt-cache
quarantine, per-attempt wall-time records, and the structured
``UnitFailure`` kinds.
"""

from __future__ import annotations

import os
import time
from pathlib import Path

import pytest

from repro.errors import ExperimentError
from repro.experiments import parallel
from repro.experiments.common import ScenarioConfig, ScenarioResult
from repro.experiments.parallel import (
    ResultCache,
    WorkUnit,
    run_grid,
)


#: Empty scheduler set: result validation accepts a bare ScenarioResult,
#: letting these tests use stub runners instead of real simulations.
def _unit(name: str, seed: int = 1) -> WorkUnit:
    return WorkUnit(
        config=ScenarioConfig(name=name, seed=seed, schedulers=())
    )


def _ok(unit: WorkUnit) -> ScenarioResult:
    return ScenarioResult(config=unit.config)


def _sleep(unit: WorkUnit) -> ScenarioResult:
    time.sleep(30.0)
    return ScenarioResult(config=unit.config)


def _die_once(unit: WorkUnit) -> ScenarioResult:
    """Kill the worker on the first attempt; the unit's name is a marker
    file path, which outlives the worker so the retry can see it."""
    marker = Path(unit.config.name)
    if not marker.exists():
        marker.touch()
        os._exit(1)
    return ScenarioResult(config=unit.config)


def _die(unit: WorkUnit) -> ScenarioResult:
    os._exit(1)


class TestParameterValidation:
    def test_nonpositive_budget_rejected(self):
        with pytest.raises(ExperimentError):
            run_grid([_unit("a")], run_unit=_ok, budget=0.0)


class TestSerialGrid:
    def test_budget_keeps_finished_units_and_abandons_the_rest(
        self, monkeypatch, tmp_path
    ):
        now = [0.0]
        monkeypatch.setattr(parallel, "host_clock", lambda: now[0])

        def one_second(unit: WorkUnit) -> ScenarioResult:
            now[0] += 1.0
            return ScenarioResult(config=unit.config)

        units = [_unit(f"u{i}") for i in range(4)]
        cache = ResultCache(tmp_path)
        report = run_grid(units, cache=cache, run_unit=one_second, budget=2.5)
        # Units launch at t=0, 1 and 2; the fourth would launch at t=3.
        assert [r is not None for r in report.results] == [True, True, True, False]
        assert [cache.load(u) is not None for u in units] == [True, True, True, False]
        (failure,) = report.failures
        assert failure.index == 3
        assert failure.kind == "budget"
        assert failure.attempts == 0
        assert failure.attempt_seconds == []
        assert report.stats.abandoned == report.stats.failures == 1
        assert report.stats.completed == 3

    def test_each_unit_is_stored_before_the_next_starts(self, tmp_path):
        cache = ResultCache(tmp_path)
        units = [_unit(f"u{i}") for i in range(3)]
        cached_at_start = []

        def record(unit: WorkUnit) -> ScenarioResult:
            cached_at_start.append([cache.load(u) is not None for u in units])
            return ScenarioResult(config=unit.config)

        report = run_grid(units, cache=cache, run_unit=record)
        assert report.ok
        assert cached_at_start == [
            [False, False, False],
            [True, False, False],
            [True, True, False],
        ]


class TestProcessPool:
    def test_worker_death_is_retried_on_a_rebuilt_pool(self, tmp_path):
        unit = _unit(str(tmp_path / "died-once"))
        report = run_grid([unit], parallel=2, run_unit=_die_once)
        assert report.ok
        assert report.results[0] is not None
        assert report.stats.worker_crashes == 1
        assert report.stats.retries == 1

    def test_worker_that_always_dies_lands_as_crash(self):
        report = run_grid([_unit("dies")], parallel=2, run_unit=_die)
        (failure,) = report.failures
        assert failure.kind == "crash"
        assert failure.attempts == 2
        assert len(failure.attempt_seconds) == 2
        assert report.stats.worker_crashes == 2

    def test_budget_kills_running_workers(self):
        units = [_unit(f"sleep{i}") for i in range(3)]
        events = []
        started = time.monotonic()
        report = run_grid(
            units,
            parallel=2,
            run_unit=_sleep,
            budget=1.0,
            progress=lambda e: events.append(e.kind),
        )
        # The workers are terminated, not waited for.
        assert time.monotonic() - started < 15.0
        assert [f.kind for f in report.failures] == ["budget"] * 3
        assert [f.index for f in report.failures] == [0, 1, 2]
        assert report.stats.abandoned == 3
        assert report.stats.completed == 0
        assert events.count("abandoned") == 3


class TestFailureKinds:
    def test_error_failures_keep_kind_error(self):
        def boom(unit: WorkUnit) -> ScenarioResult:
            raise ValueError("broken unit")

        report = run_grid([_unit("boom")], run_unit=boom)
        (failure,) = report.failures
        assert failure.kind == "error"
        assert "broken unit" in failure.error
        assert failure.to_dict()["kind"] == "error"


class TestAttemptWallTimes:
    def test_failure_records_per_attempt_seconds(self):
        def boom(unit: WorkUnit) -> ScenarioResult:
            raise ValueError("always broken")

        report = run_grid([_unit("boom")], run_unit=boom)
        (failure,) = report.failures
        assert failure.attempts == 2
        assert len(failure.attempt_seconds) == 2
        assert all(seconds >= 0.0 for seconds in failure.attempt_seconds)
        assert failure.to_dict()["attempt_seconds"] == failure.attempt_seconds


class TestCacheQuarantine:
    def test_truncated_entry_is_quarantined_and_recomputed(self, tmp_path):
        cache = ResultCache(tmp_path)
        unit = _unit("quarantine")
        cache.store(unit, ScenarioResult(config=unit.config))
        entry = cache.path_for(unit)
        raw = entry.read_bytes()
        entry.write_bytes(raw[: len(raw) // 2])  # torn mid-write

        assert cache.load(unit) is None
        assert cache.corrupt_entries == 1
        assert not entry.exists()  # moved aside, slot free for rewrite
        assert entry.with_suffix(".corrupt").exists()

        report = run_grid([unit], cache=cache, run_unit=_ok)
        assert report.ok
        assert report.stats.cache_corrupt == 0  # quarantined before the run
        assert cache.load(unit) is not None  # recomputed and re-stored

    def test_quarantine_counted_in_grid_stats(self, tmp_path):
        cache = ResultCache(tmp_path)
        unit = _unit("quarantine-stats")
        cache.store(unit, ScenarioResult(config=unit.config))
        entry = cache.path_for(unit)
        entry.write_bytes(b"\x80\x04garbage")

        report = run_grid([unit], cache=cache, run_unit=_ok)
        assert report.ok
        assert report.stats.cache_corrupt == 1

    def test_format_skew_is_a_plain_miss_not_quarantine(self, tmp_path):
        import pickle

        cache = ResultCache(tmp_path)
        unit = _unit("old-format")
        entry = cache.path_for(unit)
        entry.parent.mkdir(parents=True, exist_ok=True)
        entry.write_bytes(
            pickle.dumps({"format": "repro-cache-v0", "result": None})
        )
        assert cache.load(unit) is None
        assert cache.corrupt_entries == 0
        assert entry.exists()  # left in place: version skew, not damage
