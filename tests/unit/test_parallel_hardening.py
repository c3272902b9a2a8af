"""Failure-isolation hardening of the parallel grid engine.

Covers the robustness additions: the per-unit wall-clock timeout,
hung-worker termination with pool rebuild, corrupt-cache quarantine,
per-attempt wall-time records, and the structured ``UnitFailure`` kinds.
"""

from __future__ import annotations

import time

import pytest

from repro.errors import ExperimentError
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


def _hang_first_unit(unit: WorkUnit) -> ScenarioResult:
    if unit.config.name == "hang":
        time.sleep(60.0)
    return ScenarioResult(config=unit.config)


def _always_hang(unit: WorkUnit) -> ScenarioResult:
    time.sleep(60.0)
    return ScenarioResult(config=unit.config)


class TestParameterValidation:
    def test_negative_retries_rejected(self):
        with pytest.raises(ExperimentError):
            run_grid([_unit("a")], retries=-1, run_unit=_ok)

    def test_nonpositive_timeout_rejected(self):
        with pytest.raises(ExperimentError):
            run_grid([_unit("a")], unit_timeout=0.0, run_unit=_ok)


class TestUnitTimeout:
    def test_hung_process_worker_is_killed_and_pool_rebuilt(self):
        units = [_unit("hang")] + [_unit(f"ok{i}") for i in range(3)]
        events = []
        started = time.monotonic()
        report = run_grid(
            units,
            parallel=2,
            unit_timeout=1.0,
            run_unit=_hang_first_unit,
            progress=lambda e: events.append((e.kind, e.index)),
        )
        elapsed = time.monotonic() - started
        # The hung worker must not stall the grid for its full 60s sleep.
        assert elapsed < 30.0
        assert report.stats.timeouts == 1
        assert report.stats.failures == 1
        assert report.stats.completed == 3
        (failure,) = report.failures
        assert failure.kind == "timeout"
        assert failure.index == 0
        assert "timeout" in failure.error
        assert ("timeout", 0) in events

    def test_timeouts_are_not_retried(self):
        report = run_grid(
            [_unit("hang")],
            parallel=2,
            retries=3,
            unit_timeout=0.5,
            run_unit=_always_hang,
        )
        assert report.stats.timeouts == 1
        assert report.stats.retries == 0
        assert report.failures[0].kind == "timeout"

    def test_fast_units_unaffected_by_timeout(self):
        report = run_grid(
            [_unit(f"u{i}") for i in range(4)],
            parallel=2,
            unit_timeout=30.0,
            run_unit=_ok,
            use_threads=True,
        )
        assert report.ok
        assert report.stats.timeouts == 0
        assert report.stats.completed == 4

    def test_error_failures_keep_kind_error(self):
        def boom(unit: WorkUnit) -> ScenarioResult:
            raise ValueError("broken unit")

        report = run_grid(
            [_unit("boom")], retries=0, run_unit=boom, use_threads=True,
            parallel=2,
        )
        (failure,) = report.failures
        assert failure.kind == "error"
        assert "broken unit" in failure.error
        assert failure.to_dict()["kind"] == "error"


class TestAttemptWallTimes:
    def test_failure_records_per_attempt_seconds(self):
        def boom(unit: WorkUnit) -> ScenarioResult:
            raise ValueError("always broken")

        report = run_grid(
            [_unit("boom")], retries=2, run_unit=boom, use_threads=True,
            parallel=2,
        )
        (failure,) = report.failures
        assert failure.attempts == 3
        assert len(failure.attempt_seconds) == 3
        assert all(seconds >= 0.0 for seconds in failure.attempt_seconds)
        assert failure.to_dict()["attempt_seconds"] == failure.attempt_seconds

    def test_timeout_failure_records_attempt_seconds(self):
        report = run_grid(
            [_unit("hang")],
            parallel=2,
            unit_timeout=0.5,
            run_unit=_always_hang,
        )
        (failure,) = report.failures
        assert failure.kind == "timeout"
        assert len(failure.attempt_seconds) == 1
        assert failure.attempt_seconds[0] >= 0.5


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

        report = run_grid([unit], cache=cache, run_unit=_ok, use_threads=True)
        assert report.ok
        assert report.stats.cache_corrupt == 0  # quarantined before the run
        assert cache.load(unit) is not None  # recomputed and re-stored

    def test_quarantine_counted_in_grid_stats(self, tmp_path):
        cache = ResultCache(tmp_path)
        unit = _unit("quarantine-stats")
        cache.store(unit, ScenarioResult(config=unit.config))
        entry = cache.path_for(unit)
        entry.write_bytes(b"\x80\x04garbage")

        report = run_grid([unit], cache=cache, run_unit=_ok, use_threads=True)
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
