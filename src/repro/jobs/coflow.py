"""Coflow: a collection of flows sharing one performance objective.

A coflow groups the flows of one shuffle between two successive computation
stages (paper §II).  In a multi-stage job, coflows are vertices of a DAG;
a coflow is *released* (its flows start) only once every coflow it depends
on has completed.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, List, Optional, Tuple

from repro.errors import InvalidJobError
from repro.floatsum import ordered_sum
from repro.jobs.flow import Flow, FlowState

if TYPE_CHECKING:  # annotation-only: a runtime import would cycle
    from repro.simulator.units import Bytes, Seconds


class CoflowState(enum.Enum):
    """Lifecycle of a coflow inside the simulator."""

    BLOCKED = "blocked"  #: waiting on dependencies (or job not arrived)
    RUNNING = "running"  #: flows released and transmitting
    DONE = "done"  #: every flow delivered


@dataclass
class Coflow:
    """A group of flows between two successive computation stages.

    Parameters
    ----------
    coflow_id:
        Globally unique identifier.
    job_id:
        Owning job.
    flows:
        The flows of this coflow; at least one.
    stage:
        1-indexed depth of the coflow in the job DAG (leaves are stage 1).
        Filled in by :meth:`repro.jobs.job.Job.finalize`.
    """

    coflow_id: int
    job_id: int
    flows: List[Flow] = field(default_factory=list)
    stage: int = 1

    state: CoflowState = CoflowState.BLOCKED
    release_time: Optional[Seconds] = None
    finish_time: Optional[Seconds] = None

    def __post_init__(self) -> None:
        if not self.flows:
            raise InvalidJobError(f"coflow {self.coflow_id} has no flows")
        for flow in self.flows:
            if flow.coflow_id != self.coflow_id:
                raise InvalidJobError(
                    f"flow {flow.flow_id} claims coflow {flow.coflow_id}, "
                    f"but is attached to coflow {self.coflow_id}"
                )

    # ------------------------------------------------------------------
    # Static (clairvoyant) dimensions of the coflow (paper §III.C):
    # horizontal = width, vertical = largest flow size.
    # ------------------------------------------------------------------
    @property
    def width(self) -> int:
        """Horizontal dimension: number of flows."""
        return len(self.flows)

    @property
    def max_flow_bytes(self) -> Bytes:
        """Vertical dimension: size of the largest flow."""
        return max(flow.size_bytes for flow in self.flows)

    @property
    def mean_flow_bytes(self) -> Bytes:
        """Average flow size, used to normalize the blocking effect."""
        return self.total_bytes / len(self.flows)

    @property
    def total_bytes(self) -> Bytes:
        """Aggregate size of all flows."""
        return ordered_sum(flow.size_bytes for flow in self.flows)

    # ------------------------------------------------------------------
    # Online (observable) quantities, as seen at the receivers.
    # ------------------------------------------------------------------
    @property
    def bytes_sent(self) -> Bytes:
        """Bytes delivered so far across all flows."""
        return ordered_sum(flow.bytes_sent for flow in self.flows)

    @property
    def active_width(self) -> int:
        """Number of currently open connections (active flows)."""
        return sum(1 for flow in self.flows if flow.state is FlowState.ACTIVE)

    @property
    def observed_max_flow_bytes(self) -> Bytes:
        """Largest per-flow byte count observed at the receivers so far."""
        return max((flow.bytes_sent for flow in self.flows), default=0.0)

    @property
    def observed_mean_flow_bytes(self) -> Bytes:
        """Average per-flow byte count observed at the receivers so far."""
        if not self.flows:
            return 0.0
        return self.bytes_sent / len(self.flows)

    def observed_stats(self) -> Tuple[int, Bytes, Bytes]:
        """``(active_width, observed_max, observed_mean)`` in one pass.

        Ψ̈ needs all three every scheduling round; computing them via the
        individual properties walks the flow list three times (four with
        the critical-path estimator re-reading the max).  One pass in the
        same flow order produces bit-identical values: the sum accumulates
        in list order, the max is an exact selection, and the mean divides
        the same sum by the same width.
        """
        active = 0
        total = 0.0
        largest = 0.0
        # Bound once: on Python 3.11 each Enum member read goes through a
        # descriptor and cost more than the rest of this loop's body.
        active_state = FlowState.ACTIVE
        for flow in self.flows:
            if flow.state is active_state:
                active += 1
            sent = flow.size_bytes - flow.remaining_bytes
            total += sent
            if sent > largest:
                largest = sent
        return active, largest, total / len(self.flows)

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    @property
    def is_done(self) -> bool:
        return self.state is CoflowState.DONE

    @property
    def is_running(self) -> bool:
        return self.state is CoflowState.RUNNING

    def release(self, now: Seconds) -> None:
        """Release the coflow: all its flows become active."""
        if self.state is not CoflowState.BLOCKED:
            raise InvalidJobError(
                f"coflow {self.coflow_id} released twice (state={self.state})"
            )
        self.state = CoflowState.RUNNING
        self.release_time = now
        for flow in self.flows:
            flow.start(now)

    def maybe_complete(self, now: Seconds) -> bool:
        """Mark the coflow DONE if every flow finished; return True if so."""
        if self.state is CoflowState.DONE:
            return False
        if all(flow.is_done for flow in self.flows):
            self.state = CoflowState.DONE
            self.finish_time = now
            return True
        return False

    def completion_time(self) -> Optional[Seconds]:
        """Coflow completion time (CCT) from release to last flow delivery."""
        if self.release_time is None or self.finish_time is None:
            return None
        return self.finish_time - self.release_time
