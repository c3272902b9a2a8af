"""Receiver agents: the decentralized observation plane of Gurita.

In deployment (paper §IV.B), every *receiver host* runs a NetFilter shim
that tracks its incoming connections in a flow table and periodically
reports to the job's head receiver: number of open connections, bytes
received per flow.  The HR merges the reports of all its peers to form
the coflow-level view that the blocking-effect estimate Ψ̈ consumes.

This module implements that plane literally:

* :class:`ReceiverAgent` — one per (host, job): owns a
  :class:`~repro.core.flowtable.FlowTable` keyed by synthetic 5-tuples,
  fed by byte-arrival accounting;
* :class:`ReceiverReport` — what an agent sends its HR each δ round;
* :class:`ObservationPlane` — the bookkeeping that routes a simulation's
  flows to agents and merges reports per coflow.

The fast path in :class:`~repro.core.gurita.GuritaScheduler` reads the
same observable quantities straight off the coflow objects; enabling
``GuritaConfig.use_flow_tables`` routes the estimates through this plane
instead.  The two paths are equivalent by construction (a test asserts
it); the plane exists to mirror the deployment architecture and to let
users instrument per-receiver state.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Tuple

from repro.core.flowtable import FlowTable, five_tuple_for_flow
from repro.floatsum import ordered_sum
from repro.jobs.coflow import Coflow
from repro.jobs.flow import Flow


@dataclass(frozen=True)
class CoflowObservation:
    """Merged view of one coflow across all its receivers."""

    coflow_id: int
    open_connections: int
    bytes_received: float
    max_flow_bytes: float
    num_flows: int

    @property
    def mean_flow_bytes(self) -> float:
        if self.num_flows == 0:
            return 0.0
        return self.bytes_received / self.num_flows


@dataclass
class ReceiverReport:
    """One receiver's per-coflow numbers for a coordination round."""

    host: int
    #: coflow id -> (open connections, bytes, max per-flow bytes, flows)
    per_coflow: Dict[int, Tuple[int, float, float, int]] = field(
        default_factory=dict
    )


class ReceiverAgent:
    """Flow-table-backed observation agent for one receiver host."""

    def __init__(self, host: int, num_buckets: int = 256) -> None:
        self.host = host
        self.table = FlowTable(num_buckets=num_buckets)
        self._tuples: Dict[int, tuple] = {}

    def open_connection(self, flow: Flow) -> None:
        """A sender connected: register the flow's 5-tuple."""
        five_tuple = five_tuple_for_flow(flow.flow_id, flow.src, flow.dst)
        self._tuples[flow.flow_id] = five_tuple
        self.table.insert(five_tuple, flow.flow_id, flow.coflow_id)

    def account(self, flow: Flow, num_bytes: float) -> None:
        """Bytes arrived on a connection."""
        five_tuple = self._tuples.get(flow.flow_id)
        if five_tuple is not None and num_bytes > 0:
            self.table.account_bytes(five_tuple, num_bytes)

    def close_connection(self, flow: Flow) -> None:
        """The sender closed: settle the byte count, then mark closed.

        Closed records stay in the table (still counted by the HR) until
        their whole coflow completes and :meth:`evict_coflow` runs — the
        paper's HR only "excludes information of completed flows" once the
        receiver's task is done.
        """
        five_tuple = self._tuples.pop(flow.flow_id, None)
        if five_tuple is None:
            return
        record = self.table.lookup(five_tuple)
        if record is not None and record.open:
            delta = flow.bytes_sent - record.bytes_received
            if delta > 0:
                self.table.account_bytes(five_tuple, delta)
        self.table.close(five_tuple)

    def reset_connection(self, flow: Flow) -> None:
        """A crashed endpoint restarted the transfer from zero.

        The old record's byte count is discarded by re-inserting a fresh
        record under the same 5-tuple (the table's stale-entry
        replacement), mirroring a new TCP connection after the crash.
        """
        five_tuple = self._tuples.get(flow.flow_id)
        if five_tuple is not None:
            self.table.insert(five_tuple, flow.flow_id, flow.coflow_id)

    def evict_coflow(self, coflow_id: int) -> int:
        """Forget a completed coflow's closed records."""
        return self.table.evict_closed(coflow_id=coflow_id)

    def report(self) -> ReceiverReport:
        """Snapshot this receiver's per-coflow statistics."""
        report = ReceiverReport(host=self.host)
        for coflow_id, stats in self.table.coflow_stats().items():
            report.per_coflow[coflow_id] = (
                stats.open_connections,
                stats.bytes_received,
                stats.max_flow_bytes,
                stats.num_flows,
            )
        return report

    def evict_completed(self) -> int:
        """Forget closed connections (HR excludes completed flows)."""
        return self.table.evict_closed()


class ObservationPlane:
    """All receiver agents of a simulation plus the merge logic."""

    def __init__(self, num_buckets: int = 256) -> None:
        self.num_buckets = num_buckets
        self._agents: Dict[int, ReceiverAgent] = {}

    def agent_for(self, host: int) -> ReceiverAgent:
        agent = self._agents.get(host)
        if agent is None:
            agent = ReceiverAgent(host, num_buckets=self.num_buckets)
            self._agents[host] = agent
        return agent

    # ------------------------------------------------------------------
    # Simulation hooks
    # ------------------------------------------------------------------
    def on_coflow_release(self, coflow: Coflow) -> None:
        for flow in coflow.flows:
            self.agent_for(flow.dst).open_connection(flow)

    def on_flow_finish(self, flow: Flow) -> None:
        agent = self._agents.get(flow.dst)
        if agent is not None:
            agent.close_connection(flow)

    def on_flow_restart(self, flow: Flow) -> None:
        """A restart-from-zero crash recovery re-zeroed a flow's bytes."""
        agent = self._agents.get(flow.dst)
        if agent is not None:
            agent.reset_connection(flow)

    def on_coflow_finish(self, coflow: Coflow) -> None:
        """Receiver tasks done: evict the coflow's records everywhere."""
        for host in sorted({flow.dst for flow in coflow.flows}):
            agent = self._agents.get(host)
            if agent is not None:
                agent.evict_coflow(coflow.coflow_id)

    def sync_bytes(self, flows: Iterable[Flow]) -> None:
        """Bring flow tables up to date with delivered byte counts.

        Called at each coordination round: receivers read their local
        counters (the simulator's ground truth for "bytes received").
        """
        for flow in flows:
            agent = self._agents.get(flow.dst)
            if agent is None:
                continue
            five_tuple = agent._tuples.get(flow.flow_id)
            if five_tuple is None:
                continue
            record = agent.table.lookup(five_tuple)
            if record is not None and record.open:
                delta = flow.bytes_sent - record.bytes_received
                if delta > 0:
                    agent.table.account_bytes(five_tuple, delta)

    # ------------------------------------------------------------------
    # HR merge
    # ------------------------------------------------------------------
    def observe_coflows(
        self, coflow_ids: Iterable[int]
    ) -> Dict[int, CoflowObservation]:
        """Merge all receivers' reports for the given coflows."""
        wanted = set(coflow_ids)
        merged: Dict[int, List[Tuple[int, float, float, int]]] = {
            cid: [] for cid in sorted(wanted)
        }
        for agent in self._agents.values():
            for coflow_id, numbers in agent.report().per_coflow.items():
                if coflow_id in wanted:
                    merged[coflow_id].append(numbers)
        out: Dict[int, CoflowObservation] = {}
        for coflow_id, entries in merged.items():
            out[coflow_id] = CoflowObservation(
                coflow_id=coflow_id,
                open_connections=sum(e[0] for e in entries),
                bytes_received=ordered_sum(e[1] for e in entries),
                max_flow_bytes=max((e[2] for e in entries), default=0.0),
                num_flows=sum(e[3] for e in entries),
            )
        return out

    def evict_completed(self) -> int:
        """Evict closed records across all receivers; returns the count."""
        return sum(agent.evict_completed() for agent in self._agents.values())

    @property
    def num_agents(self) -> int:
        return len(self._agents)
