"""Engine unit tests: fault injection, cache robustness, lint cleanliness.

Fault-injection matrix (a serial grid runs its units in this process,
so injected task callables can count attempts): a unit that raises is
retried exactly once and lands in the structured ``failures`` report
with its offending config; a corrupt payload is caught by validation
and treated the same; transient faults are rescued by the retry;
sibling units always complete.  A real process-pool crash is exercised
via an unknown scheduler name.  Finally, the engine module itself must
be free of SIM001/SIM002 (wall-clock / unseeded-randomness) findings
*even when linted under the simulator scope*.
"""

from __future__ import annotations

from collections import Counter
from pathlib import Path

import pytest

from repro.errors import GridExecutionError
from repro.experiments.common import ScenarioConfig, ScenarioResult
from repro.experiments.parallel import (
    ResultCache,
    UnitResultError,
    WorkUnit,
    execute_unit,
    grid_of,
    run_grid,
    validate_unit_result,
)
from repro.metrics.serialize import grid_report_to_dict
from tools.simlint.runner import lint_paths, lint_source, select_rules

TINY = ScenarioConfig(num_jobs=2, fattree_k=4, seed=5)
BOOM = TINY.with_overrides(name="boom")
PAIR = ("pfs", "gurita")

#: Attempt counts per unit, shared with the serial grid's in-process runs.
ATTEMPTS: Counter = Counter()


@pytest.fixture(autouse=True)
def _reset_attempts():
    ATTEMPTS.clear()


def crash_marked(unit: WorkUnit) -> ScenarioResult:
    ATTEMPTS[unit.config.name] += 1
    if unit.config.name == "boom":
        raise RuntimeError("injected crash")
    return execute_unit(unit)


def crash_marked_once(unit: WorkUnit) -> ScenarioResult:
    ATTEMPTS[unit.config.name] += 1
    if unit.config.name == "boom" and ATTEMPTS[unit.config.name] == 1:
        raise RuntimeError("transient injected crash")
    return execute_unit(unit)


def corrupt_marked(unit: WorkUnit) -> ScenarioResult:
    ATTEMPTS[unit.config.name] += 1
    if unit.config.name == "boom":
        return {"not": "a ScenarioResult"}  # type: ignore[return-value]
    return execute_unit(unit)


def _units():
    return [
        WorkUnit(config=TINY, seed=1, schedulers=PAIR),
        WorkUnit(config=BOOM, seed=2, schedulers=PAIR),
        WorkUnit(config=TINY, seed=3, schedulers=PAIR),
    ]


class TestFaultInjection:
    def test_crash_retries_exactly_once_then_lands_in_failures(self):
        report = run_grid(_units(), run_unit=crash_marked)
        # Exactly one retry: the failing unit ran twice, no more.
        assert ATTEMPTS["boom"] == 2
        assert report.stats.retries == 1
        assert report.stats.failures == len(report.failures) == 1
        failure = report.failures[0]
        assert failure.attempts == 2
        assert failure.unit.config.name == "boom"
        assert "injected crash" in failure.error
        assert "RuntimeError" in failure.traceback
        # The structured record carries the offending config.
        assert failure.to_dict()["config"]["name"] == "boom"
        # Sibling units completed despite the crash.
        assert report.results[0] is not None
        assert report.results[2] is not None
        assert report.stats.completed == 2
        with pytest.raises(GridExecutionError) as excinfo:
            report.scenario_results()
        assert "boom" in str(excinfo.value)

    def test_transient_crash_is_rescued_by_the_retry(self):
        report = run_grid(_units(), run_unit=crash_marked_once)
        assert ATTEMPTS["boom"] == 2
        assert report.stats.retries == 1
        assert report.stats.failures == 0
        assert report.ok
        assert len(report.scenario_results()) == 3

    def test_corrupt_payload_fails_validation_and_is_reported(self):
        report = run_grid(_units(), run_unit=corrupt_marked)
        assert ATTEMPTS["boom"] == 2  # corrupt payloads are retried too
        assert report.stats.failures == 1
        assert "UnitResultError" in report.failures[0].error
        assert report.results[0] is not None
        assert report.results[2] is not None

    def test_real_process_pool_crash_is_isolated(self):
        units = [
            WorkUnit(config=TINY, seed=1, schedulers=PAIR),
            WorkUnit(
                config=BOOM, seed=2, schedulers=("pfs", "no-such-policy")
            ),
        ]
        report = run_grid(units, parallel=2)
        assert report.stats.failures == 1
        assert report.failures[0].attempts == 2
        assert "no-such-policy" in report.failures[0].error
        assert report.results[0] is not None

    def test_failure_report_is_structured_and_json_safe(self):
        import json

        report = run_grid(_units(), run_unit=crash_marked)
        record = grid_report_to_dict(report)
        assert record["stats"]["failures"] == 1
        assert record["stats"]["completed"] == 2
        assert record["failures"][0]["attempts"] == 2
        json.dumps(record)  # must not raise


class TestSerialDegenerateCase:
    def test_serial_path_shares_retry_and_failure_logic(self):
        report = run_grid(_units(), parallel=1, run_unit=crash_marked)
        assert ATTEMPTS["boom"] == 2
        assert report.stats.failures == 1
        assert report.stats.completed == 2

    def test_progress_events_stream_in_order(self):
        events = []
        report = run_grid(_units()[:2], parallel=1, run_unit=crash_marked_once,
                          progress=events.append)
        kinds = [event.kind for event in events]
        assert kinds.count("retry") == 1
        assert kinds.count("done") == 2
        assert events[-1].completed == report.stats.completed == 2
        assert all(event.total == 2 for event in events)


class TestResultCache:
    def test_roundtrip_and_hit_counting(self, tmp_path):
        units = grid_of([TINY], seeds=(1, 2), schedulers=PAIR)
        cold = run_grid(units, cache_dir=tmp_path)
        warm = run_grid(units, cache_dir=tmp_path)
        assert cold.stats.cache_hits == 0
        assert warm.stats.cache_hits == 2
        assert [r.average_jcts() for r in warm.scenario_results()] == [
            r.average_jcts() for r in cold.scenario_results()
        ]

    def test_corrupt_entry_degrades_to_miss_and_is_rewritten(self, tmp_path):
        unit = WorkUnit(config=TINY, seed=1, schedulers=PAIR)
        cache = ResultCache(tmp_path)
        run_grid([unit], cache=cache)
        path = cache.path_for(unit)
        assert path.exists()
        path.write_bytes(b"garbage, not pickle")
        assert cache.load(unit) is None
        report = run_grid([unit], cache=cache)
        assert report.stats.cache_hits == 0  # recomputed...
        assert cache.load(unit) is not None  # ...and rewritten

    def test_salt_bump_invalidates(self, tmp_path):
        unit = WorkUnit(config=TINY, seed=1, schedulers=PAIR)
        old = ResultCache(tmp_path, salt="v-old")
        old.store(unit, execute_unit(unit))
        assert old.load(unit) is not None
        assert ResultCache(tmp_path, salt="v-new").load(unit) is None

    def test_env_salt_override(self, monkeypatch, tmp_path):
        from repro.experiments.parallel import default_cache_salt

        monkeypatch.setenv("REPRO_CACHE_SALT", "my-worktree")
        assert default_cache_salt() == "my-worktree"
        unit = WorkUnit(config=TINY, seed=1, schedulers=PAIR)
        assert unit.fingerprint() == unit.fingerprint("my-worktree")


class TestValidation:
    def test_rejects_wrong_type(self):
        unit = WorkUnit(config=TINY, seed=1, schedulers=PAIR)
        with pytest.raises(UnitResultError, match="expected ScenarioResult"):
            validate_unit_result(unit, "garbage")

    def test_rejects_missing_scheduler(self):
        unit = WorkUnit(config=TINY, seed=1, schedulers=PAIR)
        outcome = execute_unit(
            WorkUnit(config=TINY, seed=1, schedulers=("pfs",))
        )
        with pytest.raises(UnitResultError, match="returned schedulers"):
            validate_unit_result(unit, outcome)

    def test_accepts_good_payload(self):
        unit = WorkUnit(config=TINY, seed=1, schedulers=PAIR)
        outcome = execute_unit(unit)
        assert validate_unit_result(unit, outcome) is outcome


class TestReportSurfaces:
    def test_grid_report_to_dict_carries_failures_and_stats(self):
        report = run_grid(_units(), run_unit=crash_marked)
        record = grid_report_to_dict(report)
        assert record["results"][1] is None  # the failed unit's slot
        assert record["results"][0] is not None
        assert record["stats"]["failures"] == 1
        assert record["stats"]["retries"] == 1
        assert len(record["units"]) == 3
        assert record["failures"][0]["config"]["name"] == "boom"

    def test_parallel_counters_snapshot(self):
        report = run_grid(_units()[:2], parallel=1, run_unit=crash_marked_once)
        counters = report.stats.counters()
        assert counters["total_units"] == 2
        assert counters["completed"] == 2
        assert counters["retries"] == 1.0
        assert counters["failures"] == 0.0
        assert 0.0 <= counters["worker_utilization"] <= 1.0


ENGINE_PATH = (
    Path(__file__).resolve().parents[2] / "src/repro/experiments/parallel.py"
)


class TestEngineIsSimlintClean:
    def test_no_wallclock_or_randomness_even_under_simulator_scope(self):
        """SIM001 is scoped to the simulator packages, so force the scope:
        lint the engine source as if it lived there and require zero
        SIM001/SIM002 hits — the engine must not read the host clock
        (timing is injected via repro.experiments.timing) nor touch
        global randomness (seeds are blake2b-derived)."""
        source = ENGINE_PATH.read_text(encoding="utf-8")
        report = lint_source(
            source,
            path="src/repro/simulator/_parallel_scope_probe.py",
            rules=select_rules(["SIM001", "SIM002"]),
        )
        assert report.clean, report.render_human()

    def test_engine_module_lints_clean_under_default_rules(self):
        report = lint_paths([str(ENGINE_PATH)])
        assert report.clean, report.render_human()
