"""Total-bytes-sent (TBS) schedulers: the strawmen of the paper's §II.

Two clairvoyant variants used by the motivation experiments (Figure 2):

* :class:`TotalBytesSjf` — classic Shortest-Job-First on the job's *total*
  bytes across all stages (what the paper argues against);
* :class:`StageBytesSjf` — the same mechanism, but ranking jobs by the
  bytes of their *currently running stage* (the paper's scenario-2
  intuition, a simplified stage-aware scheduler).
"""

from __future__ import annotations

from typing import Dict, List

from repro.floatsum import ordered_sum
from repro.jobs.flow import Flow
from repro.schedulers.base import SchedulerPolicy
from repro.simulator.bandwidth.request import (
    MAX_SWITCH_CLASSES,
    AllocationMode,
    AllocationRequest,
)


class TotalBytesSjf(SchedulerPolicy):
    """Clairvoyant SJF on total job size (the TBS strawman).

    Incomplete jobs are ranked by total bytes sent across all stages; the
    job's rank (capped at the number of switch queues) becomes the priority
    class of all its flows.
    """

    name = "tbs-sjf"

    def __init__(self, num_classes: int = MAX_SWITCH_CLASSES) -> None:
        super().__init__()
        self.num_classes = num_classes

    def _job_score(self, job_id: int) -> float:
        assert self.context is not None
        return self.context.job(job_id).total_bytes

    def allocation(self, active_flows: List[Flow], now: float) -> AllocationRequest:
        assert self.context is not None
        job_ids = sorted(
            {self.context.coflow(f.coflow_id).job_id for f in active_flows}
        )
        ranked = sorted(job_ids, key=lambda jid: (self._job_score(jid), jid))
        job_class: Dict[int, int] = {
            jid: min(rank, self.num_classes - 1) for rank, jid in enumerate(ranked)
        }
        priorities = {
            f.flow_id: job_class[self.context.coflow(f.coflow_id).job_id]
            for f in active_flows
        }
        return AllocationRequest(
            mode=AllocationMode.SPQ,
            priorities=priorities,
            num_classes=self.num_classes,
        )


class StageBytesSjf(TotalBytesSjf):
    """Clairvoyant SJF on the bytes of the job's currently running stage.

    This is the paper's Figure-2 "scenario 2" scheduler: identical to
    :class:`TotalBytesSjf` except jobs are ranked by how much data their
    active stage transmits, so a large job with a light stage is not
    punished for its history.
    """

    name = "stage-sjf"

    def _job_score(self, job_id: int) -> float:
        assert self.context is not None
        job = self.context.job(job_id)
        running = job.running_coflows()
        if not running:
            return job.total_bytes
        return ordered_sum(c.total_bytes for c in running)
