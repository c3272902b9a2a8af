"""Flow-level discrete-event simulation runtime.

This couples a topology, a routing policy, a scheduling policy, and a
workload (a list of jobs) into one event loop.  As in the paper (§V), the
simulator is *flow-level*: it processes flow arrival and departure events
and recomputes per-flow rates whenever the set of active flows or their
priorities change — no per-packet simulation.

Event loop invariants:

* volumes advance linearly at the current rates between events;
* a reallocation happens after every batch of same-timestamp events and at
  every periodic scheduler update;
* flow-completion events carry the allocation epoch at which they were
  predicted and are skipped if a newer allocation invalidated them.
"""

from __future__ import annotations

import logging
import os
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Dict, List, Optional, Sequence, Set, Union

from repro.errors import CheckpointError, NoPathError, SimulationError
from repro.jobs.coflow import Coflow
from repro.jobs.flow import VOLUME_EPSILON, Flow, FlowState
from repro.jobs.job import Job
from repro.schedulers.context import SchedulerContext
from repro.simulator.bandwidth.engine import AllocationState, EngineStats
from repro.simulator.events import Event, EventKind, EventQueue
from repro.simulator.faults import (
    HR_DELAY,
    HR_DROP,
    POLICY_RESTART,
    FaultAction,
    FaultInjector,
    FaultKind,
    FaultProfile,
    FaultStats,
    default_fault_horizon,
)
from repro.simulator.hotpath import hot_path
from repro.simulator.invariants import (
    InvariantChecker,
    InvariantReport,
    invariants_from_env,
)
from repro.simulator.routing.ecmp import EcmpRouter
from repro.simulator.timecmp import time_resolution
from repro.simulator.topology.base import Topology

#: SCHEDULER_UPDATE payload marking a delayed (fault-injected) HR sync.
_HR_DELAYED_SYNC = "hr-delayed"

_LOG = logging.getLogger(__name__)

if TYPE_CHECKING:  # imported lazily to avoid a package cycle at runtime
    from repro.schedulers.base import SchedulerPolicy

#: Safety valve against runaway simulations.
DEFAULT_MAX_EVENTS = 50_000_000


@dataclass
class SimulationResult:
    """Outcome of one simulation run."""

    jobs: List[Job]
    makespan: float
    events_processed: int
    reallocations: int
    scheduler_name: str
    #: event batches whose dirty flag stayed clean (reallocation skipped)
    epochs_skipped: int = 0
    #: incremental-engine counters
    engine_stats: EngineStats = field(default_factory=EngineStats)
    #: invariant-checker outcome (None when the checker was disabled)
    invariant_report: Optional[InvariantReport] = None
    #: fault-injection outcome (None when no fault profile was configured)
    fault_stats: Optional[FaultStats] = None

    def job_completion_times(self) -> Dict[int, float]:
        """JCT per completed job id."""
        out: Dict[int, float] = {}
        for job in self.jobs:
            jct = job.completion_time()
            if jct is not None:
                out[job.job_id] = jct
        return out

    def average_jct(self) -> float:
        """Average job completion time over completed jobs."""
        jcts = list(self.job_completion_times().values())
        if not jcts:
            raise SimulationError("no completed jobs to average")
        return sum(jcts) / len(jcts)

    def coflow_completion_times(self) -> Dict[int, float]:
        """CCT per completed coflow id."""
        out: Dict[int, float] = {}
        for job in self.jobs:
            for coflow in job.coflows:
                cct = coflow.completion_time()
                if cct is not None:
                    out[coflow.coflow_id] = cct
        return out

    def average_cct(self) -> float:
        ccts = list(self.coflow_completion_times().values())
        if not ccts:
            raise SimulationError("no completed coflows to average")
        return sum(ccts) / len(ccts)

    @property
    def all_done(self) -> bool:
        return all(job.completion_time() is not None for job in self.jobs)


class CoflowSimulation:
    """One simulation: topology + router + scheduler + jobs."""

    def __init__(
        self,
        topology: Topology,
        scheduler: SchedulerPolicy,
        jobs: Sequence[Job],
        router: Optional[EcmpRouter] = None,
        max_events: int = DEFAULT_MAX_EVENTS,
        check_invariants: Optional[bool] = None,
        strict_invariants: Optional[bool] = None,
        faults: Optional[FaultProfile] = None,
        checkpoint_every: Optional[float] = None,
        checkpoint_path: Union[str, "os.PathLike[str]", None] = None,
    ) -> None:
        if not jobs:
            raise SimulationError("simulation needs at least one job")
        if checkpoint_every is not None and checkpoint_every <= 0:
            raise SimulationError(
                f"checkpoint_every must be positive, got {checkpoint_every!r}"
            )
        if checkpoint_every is not None and checkpoint_path is None:
            raise SimulationError(
                "checkpoint_every requires a checkpoint_path to write to"
            )
        self.topology = topology
        self.scheduler = scheduler
        self.router = router if router is not None else EcmpRouter(topology)
        self.max_events = max_events

        self.jobs: Dict[int, Job] = {}
        self.coflows: Dict[int, Coflow] = {}
        self.flows: Dict[int, Flow] = {}
        for job in jobs:
            if job.job_id in self.jobs:
                raise SimulationError(f"duplicate job id {job.job_id}")
            self.jobs[job.job_id] = job
            for coflow in job.coflows:
                if coflow.coflow_id in self.coflows:
                    raise SimulationError(f"duplicate coflow id {coflow.coflow_id}")
                self.coflows[coflow.coflow_id] = coflow
                for flow in coflow.flows:
                    if flow.flow_id in self.flows:
                        raise SimulationError(f"duplicate flow id {flow.flow_id}")
                    self.flows[flow.flow_id] = flow
                    self.topology.validate_host(flow.src)
                    self.topology.validate_host(flow.dst)

        #: incremental bytes-delivered counter per job (hot-path cache)
        self._job_bytes: Dict[int, float] = {job_id: 0.0 for job_id in self.jobs}
        self._job_of_flow: Dict[int, int] = {
            flow.flow_id: coflow.job_id
            for coflow in self.coflows.values()
            for flow in coflow.flows
        }
        self.scheduler.bind(
            SchedulerContext(self.jobs, self.coflows, self._job_bytes)
        )
        self._queue = EventQueue()
        self._capacities = self.topology.links.capacities()
        #: pristine capacity vector; repairs restore revoked links from it
        self._nominal_caps: List[float] = list(self._capacities)
        #: persistent allocation state, fed add/remove/priority deltas
        self.engine = AllocationState(self._capacities)
        #: opt-in invariant checking (flag wins; env var is the default)
        env_enabled, env_strict = invariants_from_env()
        enabled = env_enabled if check_invariants is None else check_invariants
        strict = env_strict if strict_invariants is None else strict_invariants
        self.invariants: Optional[InvariantChecker] = (
            InvariantChecker(self._capacities, strict=strict) if enabled else None
        )
        self._active: Dict[int, Flow] = {}
        #: cached once: logging guards on hot paths must cost one bool
        #: check, not a logger-hierarchy walk per event
        self._debug = _LOG.isEnabledFor(logging.DEBUG)
        self._now = 0.0
        self._epoch = 0
        self._events_processed = 0
        self._reallocations = 0
        self._epochs_skipped = 0
        self._incomplete_jobs = len(self.jobs)
        self._update_scheduled = False
        #: fault injection (None = perfect fabric; all fault paths inert)
        self.fault_injector: Optional[FaultInjector] = None
        if faults is not None:
            horizon = faults.horizon
            if horizon is None:
                horizon = default_fault_horizon(
                    [job.arrival_time for job in self.jobs.values()]
                )
            self.fault_injector = FaultInjector(faults, topology, horizon)
            # The router filters candidates against the injector's live
            # downed-link set (shared object, not a copy).
            self.router.set_downed_links(self.fault_injector.downed_links)
        #: flows stalled by a partition or crashed endpoint (flow_id -> Flow)
        self._parked: Dict[int, Flow] = {}
        self._parked_since: Dict[int, float] = {}
        #: δ-round counter indexing the HR channel's fault stream
        self._hr_round = 0
        #: flows the fault machinery re-inserted into the engine; unioned
        #: into the next round's priority delta so delta-reporting
        #: policies do not leave them misfiled in the lowest class
        self._forced_priority_delta: Set[int] = set()
        #: True once :meth:`run` has scheduled arrivals, the first update
        #: round, and the fault timeline; a restored simulation comes back
        #: with this set so resuming never re-bootstraps.
        self._started = False
        #: checkpoint cadence (simulated seconds; None = checkpointing off,
        #: the default — a zero-checkpoint run takes none of these paths)
        self._checkpoint_every = checkpoint_every
        self._checkpoint_path = (
            os.fspath(checkpoint_path) if checkpoint_path is not None else None
        )
        self._last_checkpoint_at = 0.0

    # ------------------------------------------------------------------
    # Public API
    # ------------------------------------------------------------------
    def run(self, until: Optional[float] = None) -> SimulationResult:
        """Run to completion (or to ``until`` seconds of simulated time).

        The bootstrap — arrival events, the first coordination round,
        the prescheduled fault timeline — happens exactly once: a
        simulation restored from a checkpoint (or re-entered after an
        ``until``-bounded return) resumes the event loop where it
        stopped instead of re-scheduling anything.
        """
        if not self._started:
            self._started = True
            for job in self.jobs.values():
                self._queue.push(job.arrival_time, EventKind.JOB_ARRIVAL, job.job_id)
            interval = self.scheduler.update_interval
            if interval is not None and interval > 0:
                first = min(job.arrival_time for job in self.jobs.values())
                self._queue.push(first + interval, EventKind.SCHEDULER_UPDATE)
                self._update_scheduled = True
            if self.fault_injector is not None:
                # The whole timeline is scheduled up front (it is a pure
                # function of the profile), so every fault/repair sits ahead
                # of the pop watermark by construction.
                for action in self.fault_injector.timeline:
                    kind = EventKind.REPAIR if action.is_repair else EventKind.FAULT
                    self._queue.push(action.time, kind, payload=action)

        while self._queue and self._incomplete_jobs > 0:
            next_time = self._queue.peek_time()
            if until is not None and next_time is not None and next_time > until:
                break
            self._step()
            if self._events_processed > self.max_events:
                raise SimulationError(
                    f"exceeded max_events={self.max_events}; "
                    "likely a starved flow with no rate (check the policy)"
                )
            if (
                self._checkpoint_every is not None
                and self._now - self._last_checkpoint_at >= self._checkpoint_every
                and self._incomplete_jobs > 0
            ):
                self._write_checkpoint()

        if self._incomplete_jobs > 0 and until is None:
            parked = f", {len(self._parked)} flows parked" if self._parked else ""
            raise SimulationError(
                f"simulation stalled with {self._incomplete_jobs} incomplete jobs "
                f"at t={self._now}{parked}"
            )
        if self._debug:
            _LOG.debug(
                "run done: t=%.6f events=%d reallocations=%d skipped=%d",
                self._now, self._events_processed,
                self._reallocations, self._epochs_skipped,
            )
        return SimulationResult(
            jobs=list(self.jobs.values()),
            makespan=self._now,
            events_processed=self._events_processed,
            reallocations=self._reallocations,
            scheduler_name=self.scheduler.name,
            epochs_skipped=self._epochs_skipped,
            engine_stats=self.engine.stats.snapshot(),
            invariant_report=(
                self.invariants.report() if self.invariants is not None else None
            ),
            fault_stats=(
                self.fault_injector.stats
                if self.fault_injector is not None
                else None
            ),
        )

    @property
    def now(self) -> float:
        return self._now

    # ------------------------------------------------------------------
    # Checkpoint support
    # ------------------------------------------------------------------
    #: Every attribute captured verbatim by :meth:`snapshot_state`.
    #: The queue, scheduler, and engine go through their own
    #: ``snapshot_state`` contracts; ``_debug`` is recomputed on restore
    #: (logger configuration is host state, not simulation state); the
    #: checkpoint cadence settings are supplied fresh by the restore
    #: call.  Enumerating fields explicitly — instead of ``__dict__`` —
    #: also keeps observability probes (which monkeypatch bound methods
    #: like ``_reallocate`` onto the instance) out of snapshots: probes
    #: are host-side instrumentation and do not survive a checkpoint.
    _SNAPSHOT_FIELDS = (
        "topology",
        "router",
        "max_events",
        "jobs",
        "coflows",
        "flows",
        "_job_bytes",
        "_job_of_flow",
        "_capacities",
        "_nominal_caps",
        "invariants",
        "_active",
        "_now",
        "_epoch",
        "_events_processed",
        "_reallocations",
        "_epochs_skipped",
        "_incomplete_jobs",
        "_update_scheduled",
        "fault_injector",
        "_parked",
        "_parked_since",
        "_hr_round",
        "_forced_priority_delta",
        "_started",
    )

    def snapshot_state(self) -> Dict[str, Any]:
        """Capture the complete simulation state for a checkpoint.

        The returned payload is meant to be pickled **whole, in one
        pass** (see :mod:`repro.simulator.checkpoint`): cross-component
        reference sharing — the fault injector's live downed-link set
        aliased by the router, the scheduler context's views onto the
        job/coflow/progress dicts — is preserved by pickle's memo, so a
        restored simulation has exactly the original aliasing without
        any manual rewiring.
        """
        return {
            "fields": {name: getattr(self, name) for name in self._SNAPSHOT_FIELDS},
            "queue": {
                "class": type(self._queue),
                "state": self._queue.snapshot_state(),
            },
            "scheduler": {
                "class": type(self.scheduler),
                "state": self.scheduler.snapshot_state(),
            },
            "engine": self.engine.snapshot_state(),
        }

    @classmethod
    def restore_state(
        cls,
        state: Dict[str, Any],
        checkpoint_every: Optional[float] = None,
        checkpoint_path: Union[str, "os.PathLike[str]", None] = None,
    ) -> "CoflowSimulation":
        """Rebuild a mid-run simulation from a :meth:`snapshot_state` payload.

        ``checkpoint_every``/``checkpoint_path`` configure the restored
        run's *own* cadence (they are host policy, not snapshot state);
        leave them unset to resume without further checkpointing.
        """
        sim = cls.__new__(cls)
        for name, value in state["fields"].items():
            setattr(sim, name, value)
        if state["engine"] is None:
            # Schema-1 snapshots of engine-off runs have no engine to resume.
            raise CheckpointError(
                "snapshot carries no allocation engine state; it was "
                "written by an engine-off run and cannot be resumed"
            )
        queue_cls = state["queue"]["class"]
        queue: EventQueue = queue_cls()
        queue.restore_state(state["queue"]["state"])
        sim._queue = queue
        scheduler_cls = state["scheduler"]["class"]
        scheduler = scheduler_cls.__new__(scheduler_cls)
        scheduler.restore_state(state["scheduler"]["state"])
        sim.scheduler = scheduler
        engine = AllocationState.__new__(AllocationState)
        engine.restore_state(state["engine"])
        sim.engine = engine
        # Host-side attributes, recomputed rather than restored.
        sim._debug = _LOG.isEnabledFor(logging.DEBUG)
        sim._checkpoint_every = checkpoint_every
        sim._checkpoint_path = (
            os.fspath(checkpoint_path) if checkpoint_path is not None else None
        )
        sim._last_checkpoint_at = sim._now
        return sim

    def _write_checkpoint(self) -> None:
        """Write one atomic checkpoint at the current simulated time."""
        # Imported lazily: the checkpoint module imports this one, and a
        # zero-checkpoint run never needs it at all.
        from repro.simulator.checkpoint import write_checkpoint

        assert self._checkpoint_path is not None
        write_checkpoint(self, self._checkpoint_path)
        self._last_checkpoint_at = self._now

    # ------------------------------------------------------------------
    # Event processing
    # ------------------------------------------------------------------
    @hot_path
    def _step(self) -> None:
        """Process every event at the next timestamp, then reallocate."""
        event = self._queue.pop()
        self._events_processed += 1
        if self.invariants is not None:
            self.invariants.check_event_causality(event.time, self._now)
        batch_time = event.time
        self._advance_to(batch_time)
        changed = self._handle(event)

        # Drain all events that share this timestamp.  Events within float
        # time resolution of the batch denote the same simulation instant —
        # exact equality would split them into separate batches, each
        # paying a redundant reallocation.  The queue's has_event_within
        # applies the same timecmp tolerance as its push-side watermark
        # guard, so a batch straddling the watermark can never be split.
        horizon = batch_time + self._time_tick()
        while self._queue.has_event_within(horizon):
            drained = self._queue.pop()
            if self.invariants is not None:
                self.invariants.check_event_causality(drained.time, self._now)
            changed = self._handle(drained) or changed
            self._events_processed += 1

        # A completion prediction landing exactly on schedule also counts.
        changed = self._finish_ripe_flows() or changed

        # update_interval == 0 means "a coordination round after every
        # event batch" (the δ→0 limit); it cannot be event-scheduled
        # because a zero-delay event would re-enter its own batch.
        if self.scheduler.update_interval == 0.0 and self._incomplete_jobs > 0:
            update_changed = self.scheduler.on_update(self._now)
            changed = (
                True if update_changed is None else bool(update_changed)
            ) or changed

        if changed:
            self._reallocate()
        else:
            # Dirty flag stayed clean: the active set and every priority
            # are untouched, so the previous rate assignment still holds.
            self._epochs_skipped += 1
            self.engine.stats.epochs_skipped += 1

    @hot_path
    def _advance_to(self, time: float) -> None:
        if time < self._now - 1e-9:
            raise SimulationError(
                f"time went backwards: {self._now} -> {time}"
            )
        elapsed = time - self._now
        if elapsed > 0:
            # Hottest loop in the simulator: every event batch touches every
            # active flow.  Flow.advance is inlined here (identical float
            # arithmetic) to drop a method call and re-reads per flow.
            job_bytes = self._job_bytes
            job_of_flow = self._job_of_flow
            for flow in self._active.values():
                rate = flow.rate
                remaining = flow.remaining_bytes
                delivered = rate * elapsed
                if delivered > remaining:
                    delivered = remaining
                if delivered > 0:
                    job_bytes[job_of_flow[flow.flow_id]] += delivered
                if flow.state is FlowState.ACTIVE:
                    # max(0.0, ...) without the builtin call; <= maps -0.0
                    # to 0.0 exactly like max would.
                    left = remaining - rate * elapsed
                    flow.remaining_bytes = 0.0 if left <= 0.0 else left
        self._now = max(self._now, time)

    @hot_path
    def _handle(self, event: Event) -> bool:
        """Apply one event; returns True if the active flow set changed."""
        if event.kind is EventKind.JOB_ARRIVAL:
            job = self.jobs[event.payload]
            self.scheduler.on_job_arrival(job, self._now)
            for coflow in job.arrive(self._now):
                self._release_coflow(coflow)
            return True
        if event.kind is EventKind.FLOW_COMPLETION:
            # Stale predictions (older epoch) are no-ops; fresh ones are
            # handled by _finish_ripe_flows after the batch drains.
            return event.epoch == self._epoch
        if event.kind is EventKind.SCHEDULER_UPDATE:
            return self._handle_scheduler_update(event)
        if event.kind is EventKind.FAULT:
            return self._apply_fault_action(event.payload)  # simlint: hot-ok[fault path; runs only on FAULT events]
        if event.kind is EventKind.REPAIR:
            return self._apply_repair_action(event.payload)  # simlint: hot-ok[fault path; runs only on REPAIR events]
        raise SimulationError(f"unknown event kind {event.kind!r}")

    def _handle_scheduler_update(self, event: Event) -> bool:
        """One δ-interval coordination round, possibly degraded by faults.

        A dropped round skips ``on_update`` entirely: receivers keep
        scheduling on their last-synced (stale) Ψ̈ view — the paper's
        graceful-degradation regime — and the policy is told via
        ``on_sync_degraded`` so it can apply its staleness bound.  A
        delayed round re-materializes as a one-shot update event (which
        does not reschedule the periodic cadence, so delayed syncs can
        arrive after later rounds: reordering).
        """
        is_delayed_sync = event.payload == _HR_DELAYED_SYNC
        interval = self.scheduler.update_interval
        if (
            not is_delayed_sync
            and self._incomplete_jobs > 0
            and interval is not None
            and interval > 0
        ):
            # Clamp past the batch-draining window so an interval below
            # float time resolution cannot re-enter its own batch.  Four
            # ticks keeps the event outside the horizon *and* outside the
            # timecmp tolerance has_event_within grants around it.
            self._queue.push(
                self._now + max(interval, 4.0 * self._time_tick()),
                EventKind.SCHEDULER_UPDATE,
            )
        injector = self.fault_injector
        if (
            injector is not None
            and injector.profile.hr is not None
            and not is_delayed_sync
        ):
            disposition, delay = injector.hr_disposition(self._hr_round, self._now)
            self._hr_round += 1
            if disposition == HR_DROP:
                changed = self.scheduler.on_sync_degraded(self._now)
                return False if changed is None else bool(changed)
            if disposition == HR_DELAY:
                self._queue.push(
                    self._now + max(delay, 4.0 * self._time_tick()),
                    EventKind.SCHEDULER_UPDATE,
                    payload=_HR_DELAYED_SYNC,
                )
                changed = self.scheduler.on_sync_degraded(self._now)
                return False if changed is None else bool(changed)
        if is_delayed_sync and injector is not None:
            injector.hr_delivered(self._now)
        changed = self.scheduler.on_update(self._now)
        # Policies may report "nothing changed" to skip reallocation.
        return True if changed is None else bool(changed)

    def _release_coflow(self, coflow: Coflow) -> None:
        coflow.release(self._now)
        injector = self.fault_injector
        for flow in coflow.flows:
            if injector is not None and (
                flow.src in injector.crashed_hosts
                or flow.dst in injector.crashed_hosts
            ):
                self._park_flow(flow, in_active=False)  # simlint: hot-ok[fault path; parked flows leave the hot set]
                continue
            # Per-flow fault isolation: one partitioned flow must park,
            # not abort the release of its siblings.
            try:  # simlint: ignore[SIM206] (fault isolation per flow)
                flow.route = self.router.route_flow(flow)
            except NoPathError:
                if injector is None:
                    raise  # a perfect fabric with no route is a topology bug
                self._park_flow(flow, in_active=False)  # simlint: hot-ok[fault path; parked flows leave the hot set]
                continue
            self._active[flow.flow_id] = flow
            self.engine.add_flow(flow.flow_id, flow.route)
        self.scheduler.on_coflow_release(coflow, self._now)

    # ------------------------------------------------------------------
    # Fault application (all methods assume an injector is present)
    # ------------------------------------------------------------------
    def _apply_fault_action(self, action: FaultAction) -> bool:
        injector = self.fault_injector
        assert injector is not None
        stats = injector.stats
        stats.faults_injected += 1
        changed = False
        if action.kind in (FaultKind.LINK_DOWN, FaultKind.SWITCH_DOWN):
            newly = injector.links_down(action.links)
            stats.link_down_events += len(newly)
            if action.kind == FaultKind.SWITCH_DOWN:
                stats.switch_failures += 1
            for link_id in newly:
                self._set_link_capacity(link_id, 0.0)
            if newly:
                # The router shares the injector's live downed-link set;
                # its per-generation route caches must be dropped by hand.
                self.router.invalidate_routes()
                self._reroute_after_outage()
                changed = True  # capacity changed even if no flow moved
                if self._debug:
                    _LOG.debug(
                        "t=%.6f fault downed %d links (%d total down)",
                        self._now, len(newly), len(injector.downed_links),
                    )
        elif action.kind == FaultKind.HOST_DOWN:
            newly = injector.hosts_down(action.hosts, action.policy)
            stats.host_crashes += len(newly)
            if newly:
                self._crash_hosts(newly, action.policy)
                self.scheduler.on_hosts_changed(
                    frozenset(injector.crashed_hosts), self._now
                )
                changed = True
        else:
            raise SimulationError(f"unknown fault action kind {action.kind!r}")
        if self.invariants is not None:
            self.invariants.note_fault_state(
                injector.downed_links, injector.crashed_hosts
            )
        return changed

    def _apply_repair_action(self, action: FaultAction) -> bool:
        injector = self.fault_injector
        assert injector is not None
        stats = injector.stats
        stats.repairs_applied += 1
        changed = False
        if action.kind in (FaultKind.LINK_UP, FaultKind.SWITCH_UP):
            restored = injector.links_up(action.links)
            for link_id in restored:
                self._set_link_capacity(link_id, self._nominal_caps[link_id])
            if restored:
                # Repairs mutate the shared downed-link set too: without
                # this, cached alive-route lists would keep flows off
                # their pre-fault paths after the fabric heals.
                self.router.invalidate_routes()
                changed = True
                if self._debug:
                    _LOG.debug(
                        "t=%.6f repair restored %d links (%d still down)",
                        self._now, len(restored), len(injector.downed_links),
                    )
        elif action.kind == FaultKind.HOST_UP:
            recovered = injector.hosts_up(action.hosts)
            if recovered:
                self.scheduler.on_hosts_changed(
                    frozenset(injector.crashed_hosts), self._now
                )
                changed = True
        else:
            raise SimulationError(f"unknown repair action kind {action.kind!r}")
        if changed:
            self._unpark_flows()
        if self.invariants is not None:
            self.invariants.note_fault_state(
                injector.downed_links, injector.crashed_hosts
            )
        return changed

    def _set_link_capacity(self, link_id: int, capacity: float) -> None:
        """Propagate one link's revoked/restored capacity everywhere."""
        self.engine.set_capacity(link_id, capacity)
        if self.invariants is not None:
            self.invariants.note_capacity(link_id, capacity)

    def _reroute_after_outage(self) -> None:
        """Move active flows off downed links; park the partitioned ones."""
        injector = self.fault_injector
        assert injector is not None
        victims = [
            flow
            for _, flow in sorted(self._active.items())
            if not self.router.route_is_alive(flow.route)
        ]
        for flow in victims:
            try:
                new_route = self.router.route_flow(flow)
            except NoPathError:
                self._park_flow(flow, in_active=True)
                continue
            flow.route = new_route
            self.engine.update_route(flow.flow_id, new_route)
            injector.stats.flows_rerouted += 1
            injector.stats.rerouted_bytes += flow.remaining_bytes

    def _crash_hosts(self, hosts: Sequence[int], policy: str) -> None:
        """Abort every active flow with an endpoint on a crashed host."""
        injector = self.fault_injector
        assert injector is not None
        crashed = set(hosts)
        victims = [
            flow
            for _, flow in sorted(self._active.items())
            if flow.src in crashed or flow.dst in crashed
        ]
        for flow in victims:
            if policy == POLICY_RESTART:
                # Restart-from-zero: delivered bytes are discarded, and
                # the job-level progress cache must forget them too or
                # Ψ̈-driven priorities would credit phantom progress.
                discarded = flow.bytes_sent
                if discarded > 0:
                    self._job_bytes[self._job_of_flow[flow.flow_id]] -= discarded
                flow.remaining_bytes = float(flow.size_bytes)
                injector.stats.flow_restarts += 1
                self.scheduler.on_flow_restart(flow, self._now)
            self._park_flow(flow, in_active=True)

    def _park_flow(self, flow: Flow, *, in_active: bool) -> None:
        """Stall a flow until a repair makes it schedulable again.

        Parked flows leave the active set and the allocation engine, so
        the downed-link and crashed-host invariants hold by construction:
        nothing can allocate rate to them or credit them progress.
        """
        injector = self.fault_injector
        assert injector is not None
        if in_active:
            del self._active[flow.flow_id]
            self.engine.remove_flow(flow.flow_id)
        flow.rate = 0.0
        self._parked[flow.flow_id] = flow
        self._parked_since[flow.flow_id] = self._now
        injector.stats.flows_parked += 1

    def _unpark_flows(self) -> None:
        """Resume every parked flow the repaired fabric can serve again."""
        injector = self.fault_injector
        assert injector is not None
        for flow_id in sorted(self._parked):
            flow = self._parked[flow_id]
            if (
                flow.src in injector.crashed_hosts
                or flow.dst in injector.crashed_hosts
            ):
                continue
            try:
                route = self.router.route_flow(flow)
            except NoPathError:
                continue  # still partitioned; a later repair may help
            flow.route = route
            del self._parked[flow_id]
            self._active[flow_id] = flow
            self.engine.add_flow(flow_id, route)
            # add_flow files the flow in the lowest class; make sure the
            # next allocation re-files it under its true class even for
            # policies that report precise priority deltas.
            self._forced_priority_delta.add(flow_id)
            injector.stats.flows_recovered += 1
            injector.stats.recovery_seconds.append(
                self._now - self._parked_since.pop(flow_id)
            )

    def _time_tick(self) -> float:
        """The smallest representable time step at the current clock.

        Flows whose remaining transfer time falls below this cannot make
        float-visible progress and must be treated as complete, or the
        completion event would re-fire at the same timestamp forever.
        """
        return time_resolution(self._now)

    @hot_path
    def _finish_ripe_flows(self) -> bool:
        """Complete every active flow whose volume has drained (or whose
        remaining transfer time is below float time resolution)."""
        tick = self._time_tick()
        ripe = [
            f
            for f in self._active.values()
            if f.remaining_bytes <= VOLUME_EPSILON
            or f.remaining_bytes <= f.rate * tick
        ]
        if not ripe:
            return False
        for flow in ripe:
            flow.finish(self._now)
            del self._active[flow.flow_id]
            self.engine.remove_flow(flow.flow_id)
            self.scheduler.on_flow_finish(flow, self._now)
            coflow = self.coflows[flow.coflow_id]
            if coflow.maybe_complete(self._now):
                self.scheduler.on_coflow_finish(coflow, self._now)
                job = self.jobs[coflow.job_id]
                for dependent in job.releasable_after(coflow.coflow_id):
                    self._release_coflow(dependent)
                if job.maybe_complete(self._now):
                    self._incomplete_jobs -= 1
                    self.scheduler.on_job_finish(job, self._now)
        # Releasing dependents may have unlocked flows that are themselves
        # zero-volume corner cases; they get caught on the next round.
        return True

    @hot_path
    def _reallocate(self) -> None:
        """Ask the scheduler for priorities and recompute all rates."""
        self._epoch += 1
        self._reallocations += 1
        active = list(self._active.values())
        if not active:
            return
        request = self.scheduler.allocation(active, self._now)
        priority_delta = self.scheduler.consume_priority_delta()
        if self._forced_priority_delta:
            if priority_delta is not None:
                priority_delta = priority_delta | frozenset(
                    self._forced_priority_delta
                )
            self._forced_priority_delta.clear()
        rates = self.engine.allocate(request, priority_delta=priority_delta)
        if self.invariants is not None:
            self.invariants.check_allocation(active, rates, self._now)
            self.invariants.maybe_audit_engine(
                self.engine, active, request, self._now
            )
        next_completion: Optional[float] = None
        for flow in active:
            flow.priority = request.priorities.get(flow.flow_id, flow.priority)
            flow.rate = rates.get(flow.flow_id, 0.0)
            if flow.rate > 0:
                eta = self._now + flow.remaining_bytes / flow.rate
                if next_completion is None or eta < next_completion:
                    next_completion = eta
        if next_completion is not None:
            # Clamp below float time resolution so the event strictly
            # advances the clock; the ripeness test completes such flows.
            next_completion = max(next_completion, self._now + self._time_tick())
            self._queue.push(
                next_completion, EventKind.FLOW_COMPLETION, epoch=self._epoch
            )
        elif not self._queue:
            raise SimulationError(
                f"deadlock at t={self._now}: {len(active)} active flows, "
                "all at rate zero and no pending events"
            )


def simulate(
    topology: Topology,
    scheduler: SchedulerPolicy,
    jobs: Sequence[Job],
    router: Optional[EcmpRouter] = None,
    until: Optional[float] = None,
    faults: Optional[FaultProfile] = None,
    checkpoint_every: Optional[float] = None,
    checkpoint_path: Union[str, "os.PathLike[str]", None] = None,
) -> SimulationResult:
    """Convenience wrapper: build a :class:`CoflowSimulation` and run it."""
    return CoflowSimulation(
        topology, scheduler, jobs, router=router, faults=faults,
        checkpoint_every=checkpoint_every, checkpoint_path=checkpoint_path,
    ).run(until=until)
