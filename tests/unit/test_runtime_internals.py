"""Unit tests for runtime internals: epochs, ticks, counters, results."""

import math

import pytest

from repro.errors import SimulationError
from repro.jobs import single_stage_job
from repro.schedulers.pfs import PerFlowFairSharing
from repro.simulator.events import EventKind
from repro.simulator.runtime import CoflowSimulation, SimulationResult
from repro.simulator.topology.bigswitch import BigSwitchTopology

GB = 1e9


def make_sim(jobs):
    return CoflowSimulation(
        BigSwitchTopology(num_hosts=6, link_capacity=1.0 * GB),
        PerFlowFairSharing(),
        jobs,
    )


class TestJobBytesCounter:
    def test_counter_matches_ground_truth(self, ids):
        jobs = [
            single_stage_job([(0, 1, 0.5 * GB)], ids=ids),
            single_stage_job([(0, 2, 1.5 * GB)], arrival_time=0.2, ids=ids),
        ]
        sim = make_sim(jobs)
        sim.run()
        for job in jobs:
            assert sim._job_bytes[job.job_id] == pytest.approx(
                job.total_bytes, rel=1e-6
            )

    def test_counter_consistent_mid_run(self, ids):
        job = single_stage_job([(0, 1, 10.0 * GB)], ids=ids)
        sim = make_sim([job])
        sim.run(until=2.0)
        assert sim._job_bytes[job.job_id] == pytest.approx(
            job.bytes_sent, rel=1e-6
        )


class TestTimeTick:
    def test_tick_positive_and_scales_with_clock(self, ids):
        sim = make_sim([single_stage_job([(0, 1, 1.0)], ids=ids)])
        tick_at_zero = sim._time_tick()
        assert tick_at_zero > 0
        sim._now = 1e6
        assert sim._time_tick() > tick_at_zero
        assert sim._time_tick() >= math.ulp(1e6)

    def test_sub_resolution_flows_complete(self, ids):
        """A flow whose service time is below the clock's float resolution
        must still finish (regression test for the completion livelock)."""
        big = single_stage_job([(0, 1, 100.0 * GB)], ids=ids)
        # Tiny flow arriving late: remaining/rate << ulp(now).
        tiny = single_stage_job(
            [(2, 3, 2e-5 * GB)], arrival_time=50.0, ids=ids
        )
        sim = make_sim([big, tiny])
        result = sim.run()
        assert result.all_done
        assert result.events_processed < 10_000  # no livelock spin

    def test_time_never_goes_backwards(self, ids):
        sim = make_sim([single_stage_job([(0, 1, 1.0)], ids=ids)])
        sim._now = 5.0
        with pytest.raises(SimulationError):
            sim._advance_to(4.0)

    def test_event_the_queue_accepted_is_not_backwards(self, ids):
        """The queue takes a push up to 8 ulps behind its watermark; the
        clock must take the same event.  At 4e6 s four ulps exceed 1e-9 s,
        so an absolute guard rejected it."""
        arrival = 4e6
        job = single_stage_job([(0, 1, 1.0 * GB)], arrival_time=arrival, ids=ids)
        sim = make_sim([job])
        sim.run(until=arrival)
        sim._queue.push(
            arrival - 4 * math.ulp(arrival), EventKind.FLOW_COMPLETION, epoch=-1
        )
        result = sim.run()
        assert result.all_done
        assert job.completion_time() == pytest.approx(1.0, rel=1e-6)


class TestEpochInvalidation:
    def test_stale_completion_events_are_noops(self, ids):
        job = single_stage_job([(0, 1, 1.0 * GB)], ids=ids)
        sim = make_sim([job])
        # Schedule a bogus stale completion before running.
        sim._queue.push(0.5, EventKind.FLOW_COMPLETION, epoch=-1)
        result = sim.run()
        assert result.all_done
        assert job.completion_time() == pytest.approx(1.0, rel=1e-6)


class TestSimulationResult:
    def _completed_result(self, ids):
        job = single_stage_job([(0, 1, 1.0 * GB)], ids=ids)
        return make_sim([job]).run(), job

    def test_result_fields(self, ids):
        result, job = self._completed_result(ids)
        assert result.scheduler_name == "pfs"
        assert result.makespan == pytest.approx(1.0, rel=1e-6)
        assert result.all_done
        assert result.average_cct() == pytest.approx(1.0, rel=1e-6)

    def test_coflow_completion_times(self, ids):
        result, job = self._completed_result(ids)
        ccts = result.coflow_completion_times()
        assert set(ccts) == {c.coflow_id for c in job.coflows}

    def test_average_jct_requires_completions(self):
        result = SimulationResult(
            jobs=[], makespan=0.0, events_processed=0, reallocations=0,
            scheduler_name="x",
        )
        with pytest.raises(SimulationError):
            result.average_jct()


class _CountingPFS(PerFlowFairSharing):
    """PFS with an observable coordination-round counter."""

    def __init__(self, interval):
        super().__init__()
        self.update_interval = interval
        self.updates = 0

    def on_update(self, now):
        self.updates += 1
        return False


class TestZeroIntervalUpdates:
    def _run(self, interval, ids):
        scheduler = _CountingPFS(interval)
        jobs = [
            single_stage_job([(0, 1, 0.5 * GB)], ids=ids),
            single_stage_job([(0, 2, 1.0 * GB)], arrival_time=0.25, ids=ids),
        ]
        sim = CoflowSimulation(
            BigSwitchTopology(num_hosts=6, link_capacity=1.0 * GB),
            scheduler,
            jobs,
        )
        return sim.run(), scheduler

    def test_zero_interval_runs_a_round_every_batch(self, ids):
        """Regression: δ = 0.0 used to be truthiness-gated and silently
        disabled coordination rounds; it must mean "after every batch"."""
        result, scheduler = self._run(0.0, ids)
        assert result.all_done
        # Arrivals and completions each trigger a round: at least four.
        assert scheduler.updates >= 4

    def test_none_interval_disables_rounds(self, ids):
        result, scheduler = self._run(None, ids)
        assert result.all_done
        assert scheduler.updates == 0

    def test_positive_interval_is_event_scheduled(self, ids):
        result, scheduler = self._run(0.25, ids)
        assert result.all_done
        # Rounds fire at 0.25s spacing while jobs are in flight (~1.75s),
        # not once per event batch.
        assert 4 <= scheduler.updates <= 10

    def test_zero_interval_terminates_without_jobs_pending(self, ids):
        result, scheduler = self._run(0.0, ids)
        assert result.all_done  # no post-completion spin
        assert result.events_processed < 10_000


class TestBatchTolerance:
    def _reallocations(self, second_arrival, ids):
        jobs = [
            single_stage_job([(0, 1, 1.0 * GB)], arrival_time=1.0, ids=ids),
            single_stage_job(
                [(2, 3, 1.0 * GB)], arrival_time=second_arrival, ids=ids
            ),
        ]
        return make_sim(jobs).run()

    def test_near_coincident_arrivals_batch_together(self, ids):
        """Arrivals closer than the float-resolution tick must coalesce
        into one allocation epoch, same as exactly-equal timestamps."""
        exact = self._reallocations(1.0, ids)
        near = self._reallocations(1.0 + 4 * math.ulp(1.0), ids)
        assert near.reallocations == exact.reallocations
        assert near.all_done and exact.all_done

    def test_separated_arrivals_cost_an_extra_epoch(self, ids):
        batched = self._reallocations(1.0 + 4 * math.ulp(1.0), ids)
        split = self._reallocations(1.5, ids)
        assert split.reallocations > batched.reallocations


class TestEpochSkipping:
    def test_unchanged_rounds_skip_reallocation(self, ids):
        """A coordination round that reports no priority changes must not
        recompute rates; the dirty flag records a skipped epoch instead."""
        scheduler = _CountingPFS(0.1)
        job = single_stage_job([(0, 1, 1.0 * GB)], ids=ids)
        sim = CoflowSimulation(
            BigSwitchTopology(num_hosts=4, link_capacity=1.0 * GB),
            scheduler,
            [job],
        )
        result = sim.run()
        assert result.all_done
        assert scheduler.updates >= 8
        # Every pure-update batch was skipped (arrival + completion still
        # reallocate).
        assert result.epochs_skipped >= scheduler.updates - 2
        assert result.reallocations <= 3


class TestMaxEventsGuard:
    def test_runaway_simulation_raises(self, ids):
        job = single_stage_job([(0, 1, 1000.0 * GB)], ids=ids)
        sim = CoflowSimulation(
            BigSwitchTopology(num_hosts=4, link_capacity=1.0 * GB),
            PerFlowFairSharing(),
            [job],
            max_events=1,
        )
        with pytest.raises(SimulationError):
            sim.run()
