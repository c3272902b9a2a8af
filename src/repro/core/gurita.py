"""Gurita — Least Blocking Effect First scheduling of multi-stage jobs.

This is the practical scheduler of paper §IV.B ("from concept to
practice"): no central controller, no prior knowledge of job structure or
flow sizes.  Per job, a head receiver aggregates receiver-side observations
every δ seconds and demotes coflows through exponentially spaced priority
thresholds according to the *estimated per-stage blocking effect* Ψ̈_J(s)
(Algorithm 1, LBEF).

Priority-change semantics follow the paper's TCP-reordering rule:

* a **newly released flow** starts at the highest priority (job information
  is unknown a priori) unless its job was already demoted, in which case it
  inherits the job's current class;
* a **demotion** (new class worse than old) applies immediately to all
  existing flows of the coflow;
* a **promotion** (new class better) applies only to flows released later —
  in-flight flows keep transmitting at their old priority, so packets never
  overtake within a flow.

Enforcement uses WRR-emulated SPQ by default (starvation mitigation);
see :mod:`repro.core.starvation`.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, List, Optional

from repro.core.config import GuritaConfig
from repro.core.critical_path import AvaCriticalPathEstimator
from repro.core.head_receiver import HeadReceiver
from repro.core.receiver import ObservationPlane
from repro.core.starvation import build_request
from repro.jobs.coflow import Coflow, CoflowState
from repro.jobs.flow import Flow
from repro.jobs.job import Job
from repro.schedulers.base import SchedulerPolicy
from repro.simulator.bandwidth.request import AllocationRequest


class GuritaScheduler(SchedulerPolicy):
    """The paper's contribution: decentralized LBEF over estimated Ψ̈."""

    name = "gurita"
    #: release/demotion class changes are noted precisely, so the
    #: incremental engine moves only the affected flows between classes.
    reports_priority_deltas = True

    def __init__(self, config: Optional[GuritaConfig] = None) -> None:
        super().__init__()
        self.config = config if config is not None else GuritaConfig()
        self.update_interval = self.config.update_interval
        self._estimator = AvaCriticalPathEstimator(
            max_marks_per_job=self.config.critical_path_marks
        )
        #: deployment-shaped per-receiver flow tables (optional path)
        self._plane = ObservationPlane() if self.config.use_flow_tables else None
        self._head_receivers: Dict[int, HeadReceiver] = {}
        #: class newly released flows of a coflow will receive
        self._coflow_class: Dict[int, int] = {}
        #: latest decided class per job (worst across its running stages)
        self._job_class: Dict[int, int] = {}
        #: sticky per-flow class (set at release, demoted by updates)
        self._flow_class: Dict[int, int] = {}
        #: degraded-operation state (fault injection)
        self._crashed_hosts: FrozenSet[int] = frozenset()
        #: consecutive δ-rounds each job's HR has been unreachable
        self._hr_down_rounds: Dict[int, int] = {}
        #: last round whose HR sync actually reached the receivers
        self._last_sync_time: Optional[float] = None

    # ------------------------------------------------------------------
    # Lifecycle hooks
    # ------------------------------------------------------------------
    def on_job_arrival(self, job: Job, now: float) -> None:
        self._head_receivers[job.job_id] = HeadReceiver(job, self.config)
        self._job_class[job.job_id] = 0

    def on_coflow_release(self, coflow: Coflow, now: float) -> None:
        # "Newly-arriving flows of a coflow are automatically assigned the
        # highest priority and are allowed to transmit at that priority
        # until a threshold is exceeded or an update is received from HR"
        # (paper §IV.B) — *unless* the HR already demoted the job, in which
        # case new flows inherit the job's current class (the demotion
        # rule; starting over at the top queue would let every new stage of
        # an already-demoted job cut the line until the next δ-round).
        # This is still stage-sensitive: the next δ-round re-evaluates the
        # stage's own blocking effect and promotes future flows if light.
        inherited = self._job_class.get(coflow.job_id, 0)
        self._coflow_class[coflow.coflow_id] = inherited
        for flow in coflow.flows:
            self._flow_class[flow.flow_id] = inherited
            self._note_priority_change(flow.flow_id)
        if self._plane is not None:
            self._plane.on_coflow_release(coflow)

    def on_flow_finish(self, flow: Flow, now: float) -> None:
        self._flow_class.pop(flow.flow_id, None)
        if self._plane is not None:
            self._plane.on_flow_finish(flow)

    def on_coflow_finish(self, coflow: Coflow, now: float) -> None:
        self._coflow_class.pop(coflow.coflow_id, None)
        if self._plane is not None:
            self._plane.on_coflow_finish(coflow)
        # Keep the job class honest: it is the worst class across *running*
        # stages, so a finished stage's demotion must not leak into stages
        # released after it (that would reintroduce Aalo's history
        # punishment and break the paper's stage-sensitivity claim).
        if coflow.job_id in self._job_class:
            assert self.context is not None
            self._job_class[coflow.job_id] = max(
                (
                    self._coflow_class[c.coflow_id]
                    for c in self.context.job(coflow.job_id).coflows
                    if c.coflow_id in self._coflow_class
                ),
                default=0,
            )

    def on_job_finish(self, job: Job, now: float) -> None:
        # HR excludes completed jobs from all further rounds.
        self._head_receivers.pop(job.job_id, None)
        self._job_class.pop(job.job_id, None)
        self._estimator.forget_job(job.job_id)

    # ------------------------------------------------------------------
    # The δ-spaced coordination round
    # ------------------------------------------------------------------
    def on_update(self, now: float) -> bool:
        assert self.context is not None
        self._last_sync_time = now
        changed = False
        coflow_class = self._coflow_class
        for job_id, head_receiver in self._head_receivers.items():
            if (
                self._crashed_hosts or self._hr_down_rounds
            ) and not self._hr_reachable(job_id, head_receiver):
                # HR host crashed and the failover quorum has not been
                # reached: this job's receivers keep their stale classes
                # (local scheduling continues; no blocking).  With no host
                # down and no failover count pending, every HR is
                # reachable and the check has nothing to update.
                continue
            observations = None
            if self._plane is not None:
                running = [
                    coflow
                    for coflow in head_receiver.job.coflows
                    if coflow.state is CoflowState.RUNNING
                ]
                self._plane.sync_bytes(
                    flow for coflow in running for flow in coflow.flows
                )
                observations = self._plane.observe_coflows(
                    coflow.coflow_id for coflow in running
                )
            decisions = head_receiver.decide(self._estimator, observations)
            if not decisions:
                continue
            job_class = 0
            for decision in decisions:
                new_class = decision.priority_class
                if new_class > job_class:
                    job_class = new_class
                if new_class > coflow_class.get(decision.coflow_id, 0):
                    changed = (
                        self._apply_decision(decision.coflow_id, new_class)
                        or changed
                    )
                else:
                    # Not a demotion: only future flows see the class.
                    coflow_class[decision.coflow_id] = new_class
            self._job_class[job_id] = job_class
        return changed

    def _hr_reachable(self, job_id: int, head_receiver: HeadReceiver) -> bool:
        """Is the job's HR alive (electing a stand-in when it is not)?

        A crashed HR host is tolerated for ``hr_failover_rounds`` δ-rounds
        (the job's receivers schedule on stale Ψ̈ meanwhile); then the
        peers elect the lowest-numbered alive receiver host as the new HR
        and coordination resumes.
        """
        if head_receiver.hr_host not in self._crashed_hosts:
            self._hr_down_rounds.pop(job_id, None)
            return True
        rounds = self._hr_down_rounds.get(job_id, 0) + 1
        self._hr_down_rounds[job_id] = rounds
        if rounds < self.config.hr_failover_rounds:
            return False
        elected = head_receiver.elect_new_head(self._crashed_hosts)
        if elected is None:
            return False  # every receiver host is down; retry next round
        self._hr_down_rounds.pop(job_id, None)
        return True

    # ------------------------------------------------------------------
    # Degraded operation (fault injection)
    # ------------------------------------------------------------------
    def on_sync_degraded(self, now: float) -> bool:
        """An HR sync was dropped or delayed.

        Receivers continue on their stale Ψ̈-derived classes (never
        block).  With ``stale_psi_bound`` configured and exceeded, they
        stop trusting the stale view entirely and fall back to the local
        no-information prior — every flow back at the highest priority,
        exactly how newly released flows are treated before their first
        HR update.
        """
        bound = self.config.stale_psi_bound
        if bound is None:
            return False
        last = self._last_sync_time
        if last is not None and now - last <= bound:
            return False
        changed = False
        for flow_id in sorted(self._flow_class):
            if self._flow_class[flow_id] != 0:
                self._flow_class[flow_id] = 0
                self._note_priority_change(flow_id)
                changed = True
        for coflow_id in self._coflow_class:
            self._coflow_class[coflow_id] = 0
        for job_id in self._job_class:
            self._job_class[job_id] = 0
        return changed

    def on_hosts_changed(self, crashed: FrozenSet[int], now: float) -> None:
        self._crashed_hosts = crashed
        # Recoveries may have brought original HR hosts back; reachability
        # (and any pending election) is re-evaluated at the next δ-round.

    def on_flow_restart(self, flow: Flow, now: float) -> None:
        """Restart-from-zero: the receiver's byte accounting starts over."""
        if self._plane is not None:
            self._plane.on_flow_restart(flow)

    def _apply_decision(self, coflow_id: int, new_class: int) -> bool:
        """Demotions hit existing flows; promotions only future ones.

        Returns True if any in-flight flow's priority actually changed.
        """
        assert self.context is not None
        old_class = self._coflow_class.get(coflow_id, 0)
        self._coflow_class[coflow_id] = new_class
        changed = False
        if new_class > old_class:
            for flow in self.context.coflow(coflow_id).flows:
                if flow.is_active and self._flow_class.get(flow.flow_id, 0) < new_class:
                    self._flow_class[flow.flow_id] = new_class
                    self._note_priority_change(flow.flow_id)
                    changed = True
        return changed

    # ------------------------------------------------------------------
    # Allocation
    # ------------------------------------------------------------------
    def allocation(self, active_flows: List[Flow], now: float) -> AllocationRequest:
        priorities = {
            flow.flow_id: self._flow_class.get(flow.flow_id, 0)
            for flow in active_flows
        }
        return build_request(self.config, priorities)
