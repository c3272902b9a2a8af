"""The ripe-flow scan is skipped only when it would find nothing.

``CoflowSimulation._advance_to`` applies the ripeness test of
``_finish_ripe_flows`` to every flow it advances, so the scan runs only
when that pass found a ripe flow, when the clock did not move, or when a
flow joined ``_active`` after the advance (a coflow release, an unpark).
A checked simulation runs the full scan whenever the skip fires and
fails if that scan finishes anything.

Besides the scheduler × fabric matrix, three workloads each need one of
the skip's conditions to stay exact:

* a flow of at most ``VOLUME_EPSILON`` bytes released mid-run is ripe the
  moment it joins ``_active`` (the release must ask for the scan);
* a flow parked in the batch it drains comes back ripe when a repair
  unparks it (the unpark must ask for the scan);
* a tiny next-stage flow released inside the scan and starved to rate 0
  by strict priority is ripe at the next advance (the advance must test
  zero-rate flows too).
"""

from __future__ import annotations

from typing import List

import pytest

from repro.experiments.common import (
    ScenarioConfig,
    build_fault_profile,
    build_jobs,
    build_topology,
)
from repro.jobs import JobBuilder, single_stage_job
from repro.jobs.flow import VOLUME_EPSILON
from repro.schedulers.base import SchedulerPolicy
from repro.schedulers.pfs import PerFlowFairSharing
from repro.schedulers.registry import available_schedulers, make_scheduler
from repro.simulator.bandwidth.request import AllocationMode, AllocationRequest
from repro.simulator.faults import POLICY_RESUME, FaultProfile, HostFault
from repro.simulator.runtime import CoflowSimulation
from repro.simulator.topology.bigswitch import BigSwitchTopology

GB = 1e9
#: Well under VOLUME_EPSILON: ripe from the moment it is released.
TINY = VOLUME_EPSILON / 10


def checked(sim: CoflowSimulation) -> List[float]:
    """Shadow ``sim``'s ripe scan so every skip is verified.

    Returns the list of simulated times at which the skip fired (the
    scan still runs there, and must come back empty).
    """
    scan = sim._finish_ripe_flows
    skipped: List[float] = []

    def finish_ripe_flows() -> bool:
        if sim._ripe_pending:
            return scan()
        skipped.append(sim.now)
        sim._ripe_pending = True
        found = scan()
        assert not found, f"the skipped scan had ripe flows at t={sim.now!r}"
        return found

    sim._finish_ripe_flows = finish_ripe_flows  # type: ignore[method-assign]
    return skipped


def _scenario_sim(scheduler: str, fault_profile: str = "") -> CoflowSimulation:
    config = ScenarioConfig(
        name="ripe-skip", num_jobs=10, seed=7, fattree_k=4,
        fault_profile=fault_profile,
    )
    topology = build_topology(config)
    return CoflowSimulation(
        topology,
        make_scheduler(scheduler),
        build_jobs(config, topology.num_hosts),
        faults=build_fault_profile(config),
    )


def _bigswitch(scheduler: SchedulerPolicy, jobs, faults=None) -> CoflowSimulation:
    return CoflowSimulation(
        BigSwitchTopology(num_hosts=6, link_capacity=1.0 * GB),
        scheduler,
        jobs,
        faults=faults,
    )


@pytest.mark.parametrize(
    "fault_profile",
    [
        pytest.param("", id="perfect"),
        pytest.param("link-flap", id="link-flap"),
        pytest.param("host-crash", id="host-crash"),
    ],
)
@pytest.mark.parametrize("scheduler", available_schedulers())
def test_skip_is_exact_for_every_scheduler(scheduler, fault_profile):
    sim = _scenario_sim(scheduler, fault_profile)
    skipped = checked(sim)
    result = sim.run()
    assert result.all_done
    assert skipped, "no batch skipped the scan: the check checked nothing"


def test_skip_is_exact_across_an_until_bounded_return():
    reference = _scenario_sim("gurita").run()
    sim = _scenario_sim("gurita")
    skipped = checked(sim)
    sim.run(until=reference.makespan / 2)
    halfway = len(skipped)
    result = sim.run()
    assert 0 < halfway < len(skipped)
    assert result.job_completion_times() == reference.job_completion_times()
    assert result.events_processed == reference.events_processed


def test_skip_is_exact_with_a_sub_resolution_late_flow(ids):
    """The tiny-late-flow shape of the completion-livelock regression."""
    big = single_stage_job([(0, 1, 100.0 * GB)], ids=ids)
    tiny = single_stage_job([(2, 3, 2e-5 * GB)], arrival_time=50.0, ids=ids)
    sim = _bigswitch(PerFlowFairSharing(), [big, tiny])
    checked(sim)
    assert sim.run().all_done


def test_tiny_flow_released_mid_run_finishes_in_its_batch(ids):
    busy = single_stage_job([(0, 1, 1.0 * GB)], ids=ids)
    tiny = single_stage_job([(2, 3, TINY)], arrival_time=0.5, ids=ids)
    sim = _bigswitch(PerFlowFairSharing(), [busy, tiny])
    skipped = checked(sim)
    result = sim.run()
    assert tiny.completion_time() == 0.0
    assert result.job_completion_times()[busy.job_id] == 1.0
    assert 0.5 not in skipped


def test_flow_parked_as_it_drains_finishes_when_unparked(ids):
    # 1 GB at 1 GB/s drains at exactly t=1.0, the instant its receiver
    # crashes; the resume policy keeps the drained volume through the
    # outage, so the flow comes back ripe at the repair (t=2.0).
    job = single_stage_job([(0, 1, 1.0 * GB)], ids=ids)
    crash = FaultProfile(
        name="crash-as-it-drains",
        specs=(HostFault(host=1, at=1.0, duration=1.0, policy=POLICY_RESUME),),
    )
    sim = _bigswitch(PerFlowFairSharing(), [job], faults=crash)
    checked(sim)
    result = sim.run()
    assert result.fault_stats.flows_parked == 1
    assert result.fault_stats.flows_recovered == 1
    assert job.completion_time() == 2.0


class _JobOrderSPQ(SchedulerPolicy):
    """Strict priority by job arrival order, with an idle δ-round.

    A later job's flows get zero rate wherever an earlier job's flows
    fill the link; the coordination rounds change nothing, so their
    batches advance the clock without finishing, releasing or
    reallocating anything.
    """

    name = "job-order-spq"

    def __init__(self, update_interval: float) -> None:
        super().__init__()
        self.update_interval = update_interval

    def on_update(self, now: float) -> bool:
        return False

    def allocation(self, active_flows, now):
        assert self.context is not None
        return AllocationRequest(
            mode=AllocationMode.SPQ,
            priorities={
                flow.flow_id: min(self.context.coflow(flow.coflow_id).job_id, 1)
                for flow in active_flows
            },
            num_classes=2,
        )


def test_tiny_next_stage_starved_to_zero_rate_finishes_next_batch(ids):
    # Job 0 fills host 1's downlink until t=10.  Job 1's first stage
    # (2 -> 3) ends at t=1.0 and releases, inside that batch's scan, a
    # tiny flow into host 1 that strict priority holds at rate 0.  The
    # next batch is the idle δ-round at t=1.5: only the advance's test
    # of that zero-rate flow can ask for the scan that finishes it.
    first = single_stage_job([(0, 1, 10.0 * GB)], ids=ids)
    builder = JobBuilder(arrival_time=0.0, ids=ids)
    stage_one = builder.add_coflow([(2, 3, 1.0 * GB)])
    builder.add_coflow([(4, 1, TINY)], depends_on=[stage_one])
    second = builder.build()
    assert first.job_id == 0 and second.job_id == 1
    sim = _bigswitch(_JobOrderSPQ(update_interval=0.5), [first, second])
    skipped = checked(sim)
    result = sim.run()
    assert second.completion_time() == 1.5
    assert result.job_completion_times()[first.job_id] == 10.0
    assert skipped
