"""Head-receiver (HR) coordination — Gurita's decentralized control plane.

Every job designates its first-invoked receiver as *head receiver*.  Peer
receivers report locally observable state (open connections, bytes received
per flow) every δ seconds; the HR folds the reports into per-coflow
blocking-effect estimates Ψ̈ (eq. 3), sums them into the per-stage job
effect Ψ̈_J(s), and maps that onto a priority class via the exponentially
spaced demotion thresholds.  The decision travels back to receivers, which
signal senders through the TCP ACK reserved field; senders stamp DSCP bits.

In the simulator all of that collapses into :meth:`HeadReceiver.decide`,
invoked by the Gurita policy at each δ-spaced update event — the *timing*
(information lag of up to δ) is what is faithfully modelled.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Mapping, Optional, Tuple

from repro.core.blocking import job_stage_psi, psi_from_observation
from repro.core.config import GuritaConfig
from repro.core.critical_path import AvaCriticalPathEstimator
from repro.core.receiver import CoflowObservation
from repro.jobs.coflow import Coflow
from repro.jobs.job import Job


@dataclass
class CoflowDecision:
    """One coordination round's verdict for a running coflow."""

    coflow_id: int
    stage: int
    psi: float  #: estimated coflow blocking effect Ψ̈ (after rule-4 bonus)
    stage_psi: float  #: job per-stage blocking effect Ψ̈_J(s)
    priority_class: int  #: demotion-threshold class of Ψ̈_J(s)
    on_critical_path: bool


class HeadReceiver:
    """Aggregates receiver observations for one job and decides priorities."""

    def __init__(self, job: Job, config: GuritaConfig) -> None:
        self.job = job
        self.config = config
        #: host the HR role currently lives on — the paper designates the
        #: job's first-invoked receiver; a failover election moves it.
        self.hr_host: int = self._first_receiver_host()

    def _first_receiver_host(self) -> int:
        """The first-invoked receiver: dst of the job's first flow."""
        for coflow in self.job.coflows:
            for flow in coflow.flows:
                return flow.dst
        raise ValueError(f"job {self.job.job_id} has no flows")

    def receiver_hosts(self) -> List[int]:
        """Every receiver host participating in this job, sorted."""
        return sorted({
            flow.dst for coflow in self.job.coflows for flow in coflow.flows
        })

    def elect_new_head(self, crashed_hosts: frozenset) -> Optional[int]:
        """Failover: peers elect the lowest-numbered alive receiver host.

        Deterministic by construction (min over a static candidate set),
        so every peer independently converges on the same new HR — no
        coordination protocol is needed.  Returns ``None`` when every
        receiver host of the job is down (the job cannot coordinate at
        all until a recovery).
        """
        for host in self.receiver_hosts():
            if host not in crashed_hosts:
                self.hr_host = host
                return host
        return None

    def decide(
        self,
        estimator: AvaCriticalPathEstimator,
        observations: Optional[Mapping[int, CoflowObservation]] = None,
    ) -> List[CoflowDecision]:
        """Run one coordination round over the job's running coflows.

        Completed flows are excluded automatically (the HR removes finished
        receivers' flows from consideration) because Ψ̈ is computed from
        *running* coflows only.  With ``observations`` supplied (the merged
        per-receiver flow-table reports of the observation plane), Ψ̈ is
        computed from those; otherwise from the coflows' own observable
        counters — the two are numerically equivalent.
        """
        running = self.job.running_coflows()
        if not running:
            return []

        config = self.config
        beta_floor = config.beta_floor
        bonus = config.critical_path_bonus
        job_id = self.job.job_id
        rows: List[Tuple[Coflow, float, bool]] = []
        # Each stage's Ψ̈ values, in running order: the summation order.
        stage_psis: Dict[int, List[float]] = {}
        for coflow in running:
            observation = (
                observations.get(coflow.coflow_id)
                if observations is not None
                else None
            )
            if observation is not None:
                psi = psi_from_observation(
                    observation.open_connections,
                    observation.max_flow_bytes,
                    observation.mean_flow_bytes,
                    completed_stages=coflow.stage - 1,
                    beta_floor=beta_floor,
                )
                observed_max = observation.max_flow_bytes
            else:
                # One pass over the coflow's flows yields Ψ̈ *and* the
                # critical-path estimator's input (the properties would
                # walk the flow list four times per coflow per round).
                width, observed_max, observed_mean = coflow.observed_stats()
                psi = psi_from_observation(
                    width,
                    observed_max,
                    observed_mean,
                    completed_stages=coflow.stage - 1,
                    beta_floor=beta_floor,
                )
            estimator.observe(observed_max)
            flagged = False
            if bonus > 0:
                flagged = estimator.is_critical(
                    job_id,
                    coflow.coflow_id,
                    observed_max,
                )
                if flagged:
                    # Rule 4: a marginal discount so critical-path coflows
                    # edge ahead of peers with comparable blocking effect.
                    psi *= 1.0 - bonus
            rows.append((coflow, psi, flagged))
            stage_psis.setdefault(coflow.stage, []).append(psi)

        # Ψ̈_J(s) and its class, once per stage.
        class_of = config.thresholds.class_of
        stages: Dict[int, Tuple[float, int]] = {}
        for stage, values in stage_psis.items():
            total = job_stage_psi(values)
            stages[stage] = (total, class_of(total))

        decisions: List[CoflowDecision] = []
        for coflow, psi, flagged in rows:
            stage_psi, priority_class = stages[coflow.stage]
            decisions.append(
                CoflowDecision(
                    coflow_id=coflow.coflow_id,
                    stage=coflow.stage,
                    psi=psi,
                    stage_psi=stage_psi,
                    priority_class=priority_class,
                    on_critical_path=flagged,
                )
            )
        return decisions
