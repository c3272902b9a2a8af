"""Tests for the opt-in runtime invariant checker.

Covers the failure classes directly (injected capacity, volume, causality,
and cache-coherence violations), the strict mode, env-var opt-in, and the
clean end-to-end path on a real simulation.
"""

from __future__ import annotations

import math

import pytest

from repro.errors import SimulationError
from repro.jobs import single_stage_job
from repro.jobs.flow import Flow
from repro.schedulers.pfs import PerFlowFairSharing
from repro.simulator.bandwidth.engine import AllocationState
from repro.simulator.bandwidth.request import AllocationMode, AllocationRequest
from repro.simulator.invariants import (
    INVARIANTS_ENV,
    InvariantChecker,
    invariants_from_env,
)
from repro.simulator.observability import invariant_counters
from repro.simulator.runtime import CoflowSimulation
from repro.simulator.topology.bigswitch import BigSwitchTopology

GB = 1e9


def make_flow(flow_id, route, size=1.0 * GB):
    flow = Flow(
        flow_id=flow_id, coflow_id=0, src=0, dst=1, size_bytes=size
    )
    flow.route = route
    return flow


def make_checker(**kwargs):
    return InvariantChecker([10.0, 10.0, 10.0], **kwargs)


# ----------------------------------------------------------------------
# Conservation checks
# ----------------------------------------------------------------------
class TestAllocationChecks:
    def test_clean_allocation_records_nothing(self):
        checker = make_checker()
        flows = [make_flow(1, (0, 1)), make_flow(2, (1, 2))]
        checker.check_allocation(flows, {1: 5.0, 2: 5.0}, now=1.0)
        report = checker.report()
        assert report.clean
        assert report.checks == 1

    def test_over_capacity_link_detected(self):
        checker = make_checker()
        flows = [make_flow(1, (0, 1)), make_flow(2, (1, 2))]
        checker.check_allocation(flows, {1: 8.0, 2: 8.0}, now=1.0)
        report = checker.report()
        assert report.counts[InvariantChecker.CAPACITY] == 1
        assert "link 1" in report.examples[0].message

    def test_tolerance_absorbs_float_drift(self):
        checker = make_checker(relative_tolerance=1e-6)
        flows = [make_flow(1, (0,))]
        checker.check_allocation(flows, {1: 10.0 * (1.0 + 1e-9)}, now=0.0)
        assert checker.report().clean

    def test_negative_rate_detected(self):
        checker = make_checker()
        checker.check_allocation([make_flow(1, (0,))], {1: -1.0}, now=0.0)
        assert checker.report().counts[InvariantChecker.CAPACITY] == 1

    def test_negative_volume_detected(self):
        checker = make_checker()
        flow = make_flow(1, (0,))
        flow.remaining_bytes = -1.0
        checker.check_allocation([flow], {1: 1.0}, now=0.0)
        assert (
            checker.report().counts[InvariantChecker.NEGATIVE_VOLUME] == 1
        )


# ----------------------------------------------------------------------
# Event causality
# ----------------------------------------------------------------------
class TestCausality:
    def test_past_event_detected(self):
        checker = make_checker()
        checker.check_event_causality(event_time=1.0, now=2.0)
        assert checker.report().counts[InvariantChecker.CAUSALITY] == 1

    def test_present_and_future_events_clean(self):
        checker = make_checker()
        checker.check_event_causality(event_time=2.0, now=2.0)
        checker.check_event_causality(event_time=3.0, now=2.0)
        assert checker.report().clean


# ----------------------------------------------------------------------
# Cache-coherence audit of the incremental engine
# ----------------------------------------------------------------------
class TestEngineAudit:
    CAPS = [10.0, 10.0, 10.0]

    def build_engine(self, flows, request):
        engine = AllocationState(self.CAPS)
        for flow in flows:
            engine.add_flow(flow.flow_id, flow.route)
        engine.allocate(request)
        return engine

    def test_coherent_engine_audits_clean(self):
        flows = [make_flow(1, (0, 1)), make_flow(2, (1, 2))]
        request = AllocationRequest(
            mode=AllocationMode.SPQ, priorities={1: 0, 2: 1}
        )
        engine = self.build_engine(flows, request)
        checker = make_checker()
        checker.audit_engine(engine, flows, request, now=1.0)
        assert checker.report().clean

    def test_stale_membership_detected(self):
        flows = [make_flow(1, (0, 1)), make_flow(2, (1, 2))]
        request = AllocationRequest(mode=AllocationMode.MAXMIN)
        engine = self.build_engine(flows, request)
        checker = make_checker()
        # Flow 2 finished but the removal delta was lost.
        checker.audit_engine(engine, flows[:1], request, now=1.0)
        report = checker.report()
        assert report.counts[InvariantChecker.CACHE_COHERENCE] == 1
        assert "stale" in report.examples[0].message

    def test_missing_membership_detected(self):
        flows = [make_flow(1, (0, 1)), make_flow(2, (1, 2))]
        request = AllocationRequest(mode=AllocationMode.MAXMIN)
        engine = self.build_engine(flows[:1], request)
        checker = make_checker()
        # Flow 2 is active but the add delta was lost.
        checker.audit_engine(engine, flows, request, now=1.0)
        report = checker.report()
        assert report.counts[InvariantChecker.CACHE_COHERENCE] == 1
        assert "missing" in report.examples[0].message

    def test_unreported_priority_change_detected(self):
        flows = [make_flow(1, (0, 1)), make_flow(2, (1, 2))]
        request = AllocationRequest(
            mode=AllocationMode.SPQ, priorities={1: 0, 2: 1}
        )
        engine = self.build_engine(flows, request)
        # The policy moved flow 2 into class 0 but never told the engine:
        # the *request* says class 0, the cached layout still says class 1.
        moved = AllocationRequest(
            mode=AllocationMode.SPQ, priorities={1: 0, 2: 0}
        )
        checker = make_checker()
        checker.audit_engine(engine, flows, moved, now=1.0)
        report = checker.report()
        assert report.counts[InvariantChecker.CACHE_COHERENCE] >= 1
        assert "priority change" in report.examples[0].message

    @pytest.mark.parametrize(
        "mode", [AllocationMode.MAXMIN, AllocationMode.SPQ, AllocationMode.WRR]
    )
    def test_cached_rate_mismatch_detected(self, mode):
        """The audit's rate oracle: one wrong cached rate is a violation,
        even when every membership and class row is coherent."""
        flows = [make_flow(1, (0, 1)), make_flow(2, (1, 2))]
        request = AllocationRequest(mode=mode, priorities={1: 0, 2: 1})
        engine = self.build_engine(flows, request)
        checker = make_checker()
        checker.audit_engine(engine, flows, request, now=1.0)
        assert checker.report().clean
        # One ulp off: the audit compares with ==, not a tolerance.
        engine.last_rates[2] = math.nextafter(engine.last_rates[2], math.inf)
        checker.audit_engine(engine, flows, request, now=2.0)
        report = checker.report()
        assert report.counts[InvariantChecker.CACHE_COHERENCE] == 1
        assert "rates diverged" in report.examples[0].message
        assert "flow 2" in report.examples[0].message

    def test_maxmin_skips_class_audit(self):
        flows = [make_flow(1, (0, 1))]
        spq = AllocationRequest(mode=AllocationMode.SPQ, priorities={1: 0})
        engine = self.build_engine(flows, spq)
        # Class caches may be stale under MAXMIN by design.
        checker = make_checker()
        checker.audit_engine(
            engine, flows, AllocationRequest(mode=AllocationMode.MAXMIN), now=1.0
        )
        assert checker.report().clean

    def test_sampled_audit_interval(self):
        flows = [make_flow(1, (0, 1))]
        request = AllocationRequest(mode=AllocationMode.MAXMIN)
        engine = self.build_engine(flows, request)
        checker = make_checker(audit_interval=3)
        ran = [
            checker.maybe_audit_engine(engine, flows, request, now=1.0)
            for _ in range(6)
        ]
        assert ran == [False, False, True, False, False, True]

    def test_audit_interval_validated(self):
        with pytest.raises(SimulationError):
            make_checker(audit_interval=0)


# ----------------------------------------------------------------------
# Strict mode
# ----------------------------------------------------------------------
class TestStrictMode:
    def test_strict_raises_on_first_violation(self):
        checker = make_checker(strict=True)
        with pytest.raises(SimulationError, match="capacity"):
            checker.check_allocation(
                [make_flow(1, (0,))], {1: 100.0}, now=0.0
            )

    def test_non_strict_counts_and_continues(self):
        checker = make_checker()
        for _ in range(3):
            checker.check_allocation(
                [make_flow(1, (0,))], {1: 100.0}, now=0.0
            )
        assert checker.report().counts[InvariantChecker.CAPACITY] == 3

    def test_example_cap(self):
        checker = make_checker(max_examples=2)
        for _ in range(5):
            checker.check_allocation(
                [make_flow(1, (0,))], {1: 100.0}, now=0.0
            )
        report = checker.report()
        assert len(report.examples) == 2
        assert report.total_violations == 5


# ----------------------------------------------------------------------
# Environment opt-in and runtime wiring
# ----------------------------------------------------------------------
class TestEnvOptIn:
    @pytest.mark.parametrize(
        "raw,expected",
        [
            ("", (False, False)),
            ("0", (False, False)),
            ("1", (True, False)),
            ("true", (True, False)),
            ("YES", (True, False)),
            ("strict", (True, True)),
        ],
    )
    def test_env_parsing(self, monkeypatch, raw, expected):
        monkeypatch.setenv(INVARIANTS_ENV, raw)
        assert invariants_from_env() == expected

    def test_unset_env_disables(self, monkeypatch):
        monkeypatch.delenv(INVARIANTS_ENV, raising=False)
        assert invariants_from_env() == (False, False)

    def test_env_enables_checker(self, monkeypatch, ids):
        monkeypatch.setenv(INVARIANTS_ENV, "strict")
        sim = self.make_sim(ids)
        assert sim.invariants is not None
        assert sim.invariants.strict

    def test_flag_overrides_env(self, monkeypatch, ids):
        monkeypatch.setenv(INVARIANTS_ENV, "1")
        sim = self.make_sim(ids, check_invariants=False)
        assert sim.invariants is None

    @staticmethod
    def make_sim(ids, **kwargs):
        return CoflowSimulation(
            BigSwitchTopology(num_hosts=4, link_capacity=1.0 * GB),
            PerFlowFairSharing(),
            [single_stage_job([(0, 1, 0.5 * GB)], ids=ids)],
            **kwargs,
        )


class TestEndToEnd:
    def make_sim(self, ids, **kwargs):
        jobs = [
            single_stage_job([(0, 1, 0.5 * GB), (0, 2, 1.0 * GB)], ids=ids),
            single_stage_job(
                [(1, 3, 2.0 * GB)], arrival_time=0.25, ids=ids
            ),
        ]
        return CoflowSimulation(
            BigSwitchTopology(num_hosts=4, link_capacity=1.0 * GB),
            PerFlowFairSharing(),
            jobs,
            **kwargs,
        )

    def test_checked_run_is_clean_and_reported(self, ids):
        result = self.make_sim(ids, check_invariants=True).run()
        report = result.invariant_report
        assert report is not None
        assert report.clean
        assert report.checks > 0
        assert "0 violations" in report.summary()

    def test_unchecked_run_has_no_report(self, ids):
        result = self.make_sim(ids).run()
        assert result.invariant_report is None

    def test_invariant_counters_zero_filled(self, ids):
        checked = self.make_sim(ids, check_invariants=True).run()
        unchecked = self.make_sim(ids).run()
        for result in (checked, unchecked):
            counters = invariant_counters(result)
            assert set(counters) == set(InvariantChecker.KINDS)
            assert all(v == 0 for v in counters.values())

    def test_checked_run_does_not_change_jcts(self, ids):
        plain = self.make_sim(ids).run()
        # Fresh jobs (fresh ids) for the checked run: same shape, same JCTs.
        checked = self.make_sim(ids, check_invariants=True).run()
        assert sorted(plain.job_completion_times().values()) == sorted(
            checked.job_completion_times().values()
        )


# ----------------------------------------------------------------------
# Fault-aware checks
# ----------------------------------------------------------------------
class TestFaultAwareChecks:
    def test_allocation_on_downed_link_detected(self):
        checker = make_checker()
        checker.note_fault_state(downed_links={1}, crashed_hosts=set())
        flow = make_flow(1, (0, 1))
        checker.check_allocation([flow], {1: 5.0}, now=1.0)
        report = checker.report()
        assert report.counts[InvariantChecker.DOWNED_LINK] == 1

    def test_zero_rate_on_downed_link_is_fine(self):
        checker = make_checker()
        checker.note_fault_state(downed_links={1}, crashed_hosts=set())
        flow = make_flow(1, (0, 1))
        checker.check_allocation([flow], {1: 0.0}, now=1.0)
        assert checker.report().clean

    def test_progress_on_crashed_host_detected(self):
        checker = make_checker()
        checker.note_fault_state(downed_links=set(), crashed_hosts={0})
        flow = make_flow(1, (2,))  # src=0 per make_flow
        checker.check_allocation([flow], {1: 5.0}, now=1.0)
        report = checker.report()
        assert report.counts[InvariantChecker.CRASHED_HOST] == 1

    def test_repair_clears_fault_state(self):
        checker = make_checker()
        checker.note_fault_state(downed_links={1}, crashed_hosts={0})
        checker.note_fault_state(downed_links=set(), crashed_hosts=set())
        flow = make_flow(1, (0, 1))
        checker.check_allocation([flow], {1: 5.0}, now=1.0)
        assert checker.report().clean

    def test_revoked_capacity_feeds_conservation_check(self):
        checker = make_checker()
        checker.note_capacity(1, 2.0)  # revoke 10 -> 2
        flows = [make_flow(1, (0, 1))]
        checker.check_allocation(flows, {1: 5.0}, now=1.0)
        report = checker.report()
        assert report.counts[InvariantChecker.CAPACITY] == 1

    def test_strict_mode_raises_on_downed_link(self):
        checker = make_checker(strict=True)
        checker.note_fault_state(downed_links={1}, crashed_hosts=set())
        flow = make_flow(1, (0, 1))
        with pytest.raises(SimulationError):
            checker.check_allocation([flow], {1: 5.0}, now=1.0)
