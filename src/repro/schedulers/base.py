"""Scheduling-policy interface.

A :class:`SchedulerPolicy` observes the lifecycle of jobs/coflows/flows via
hooks and, whenever the runtime reallocates bandwidth, answers with an
:class:`~repro.simulator.bandwidth.request.AllocationRequest` (allocation
mode + per-flow priority classes).  Policies never touch rates directly —
that separation mirrors the paper's deployment story, where schedulers only
set DSCP bits and switches enforce them.
"""

from __future__ import annotations

import abc
from typing import FrozenSet, List, Optional, Set

from repro.jobs.coflow import Coflow
from repro.jobs.flow import Flow
from repro.jobs.job import Job
from repro.schedulers.context import SchedulerContext
from repro.simulator.bandwidth.request import AllocationRequest

__all__ = ["SchedulerContext", "SchedulerPolicy"]


class SchedulerPolicy(abc.ABC):
    """Base class for all scheduling policies.

    Subclasses override the hooks they care about; every hook has a no-op
    default.  ``update_interval`` (seconds), when set, makes the runtime
    call :meth:`on_update` periodically — this models coordination rounds
    such as Gurita's head-receiver updates (interval δ) or Aalo's
    coordinator epochs.
    """

    #: Human-readable policy name (used in reports and benchmarks).
    name: str = "base"
    #: Seconds between periodic :meth:`on_update` calls; None disables
    #: them, 0.0 means a coordination round after *every* event batch.
    update_interval: Optional[float] = None
    #: Set True by subclasses that report precise per-flow priority deltas
    #: via :meth:`_note_priority_change`; the incremental allocation engine
    #: then moves only the reported flows between priority classes instead
    #: of diffing the full priority map each round.
    reports_priority_deltas: bool = False

    def __init__(self) -> None:
        self.context: Optional[SchedulerContext] = None
        self._priority_delta: Set[int] = set()

    # ------------------------------------------------------------------
    # Wiring
    # ------------------------------------------------------------------
    def bind(self, context: SchedulerContext) -> None:
        """Called once by the runtime before the simulation starts."""
        self.context = context

    # ------------------------------------------------------------------
    # Priority-delta reporting (consumed by the incremental engine)
    # ------------------------------------------------------------------
    def _note_priority_change(self, flow_id: int) -> None:
        """Record that ``flow_id``'s priority class changed (or was first
        assigned) since the last allocation round.

        Only meaningful for subclasses with ``reports_priority_deltas``
        set; a policy that opts in MUST note *every* class change it makes,
        or the engine will reuse stale class memberships.
        """
        self._priority_delta.add(flow_id)

    def consume_priority_delta(self) -> Optional[FrozenSet[int]]:
        """Flows whose priority class changed since the last call.

        Returns ``None`` when the policy does not track deltas (the engine
        falls back to a full diff of the priority map), otherwise the —
        possibly empty — changed-flow set.  Calling this clears the
        accumulator; the runtime consumes it once per reallocation.
        """
        if not self.reports_priority_deltas:
            self._priority_delta.clear()
            return None
        delta = frozenset(self._priority_delta)
        self._priority_delta.clear()
        return delta

    # ------------------------------------------------------------------
    # Lifecycle hooks (all optional)
    # ------------------------------------------------------------------
    def on_job_arrival(self, job: Job, now: float) -> None:
        """A job arrived; its leaf coflows are about to be released."""

    def on_coflow_release(self, coflow: Coflow, now: float) -> None:
        """A coflow's dependencies completed; its flows just became active."""

    def on_flow_finish(self, flow: Flow, now: float) -> None:
        """A flow delivered its last byte."""

    def on_coflow_finish(self, coflow: Coflow, now: float) -> None:
        """Every flow of the coflow completed."""

    def on_job_finish(self, job: Job, now: float) -> None:
        """Every coflow of the job completed."""

    def on_update(self, now: float) -> Optional[bool]:
        """Periodic coordination round (only if ``update_interval`` set).

        May return ``False`` to tell the runtime that no priority changed,
        letting it skip the (expensive) rate recomputation; returning
        ``True`` or ``None`` forces a reallocation.
        """
        return None

    # ------------------------------------------------------------------
    # Degraded-operation hooks (fault injection; all optional)
    # ------------------------------------------------------------------
    def on_sync_degraded(self, now: float) -> Optional[bool]:
        """A coordination round was dropped or delayed by a fault.

        Called *instead of* :meth:`on_update` for that round.  The default
        — do nothing — is the paper's graceful-degradation baseline:
        receivers keep scheduling on their last-synced (stale) priority
        view rather than blocking.  Policies with a staleness bound may
        adjust priorities locally and return ``True`` to force a
        reallocation; ``False``/``None`` skip it.
        """
        return False

    def on_hosts_changed(self, crashed: FrozenSet[int], now: float) -> None:
        """The set of crashed hosts changed (a crash or a recovery).

        ``crashed`` is the complete current set, not a delta.  Policies
        with host-resident components (e.g. Gurita's head receivers) use
        this to trigger failover elections.
        """

    def on_flow_restart(self, flow: Flow, now: float) -> None:
        """A host crash aborted ``flow`` under the restart-from-zero
        policy: its delivered bytes were discarded.  Policies keeping
        receiver-side byte accounting must reset it here."""

    # ------------------------------------------------------------------
    # The one mandatory method
    # ------------------------------------------------------------------
    @abc.abstractmethod
    def allocation(self, active_flows: List[Flow], now: float) -> AllocationRequest:
        """Return the bandwidth-division instructions for this round."""
