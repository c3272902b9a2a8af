"""Observability: link utilisation, class accounting, run counters.

An optional probe that snapshots the network at every reallocation:
per-link utilisation, bytes served per priority class, and a starvation
detector (flows stuck at rate zero).  Used by the ablation benches to
*show* — rather than assert — that Gurita's WRR emulation removes
starvation while raw SPQ exhibits it.

The incremental allocation engine's counters are
``SimulationResult.engine_stats`` and ``reallocations``/``epochs_skipped``
on the result itself.  Runs with the opt-in invariant checker enabled
additionally surface their violation counters through
:func:`invariant_counters`, and fault-injected runs surface their
degradation/recovery counters through :func:`fault_counters`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.simulator.bandwidth.engine import EngineStats
from repro.simulator.faults import FaultStats
from repro.simulator.invariants import InvariantChecker, InvariantReport
from repro.simulator.runtime import CoflowSimulation, SimulationResult


@dataclass
class UtilizationSample:
    """One snapshot of network state at a reallocation instant."""

    time: float
    active_flows: int
    busiest_link_utilization: float
    mean_link_utilization: float
    starved_flows: int  #: active flows currently at rate zero


@dataclass
class ClassAccounting:
    """Bytes served and flow-seconds spent per priority class."""

    bytes_served: Dict[int, float] = field(default_factory=dict)
    flow_seconds: Dict[int, float] = field(default_factory=dict)

    def record(self, priority: Optional[int], rate: float, elapsed: float) -> None:
        cls = priority if priority is not None else 0
        self.bytes_served[cls] = self.bytes_served.get(cls, 0.0) + rate * elapsed
        self.flow_seconds[cls] = self.flow_seconds.get(cls, 0.0) + elapsed


def fault_counters(result: SimulationResult) -> Dict[str, float]:
    """One run's fault-injection counters, as one flat snapshot.

    Always returns the full key set — a run executed without a fault
    profile reads all-zero — so chaos reports can tabulate faulted and
    perfect-fabric runs uniformly.
    """
    stats = result.fault_stats if result.fault_stats is not None else FaultStats()
    return {
        "faults_injected": float(stats.faults_injected),
        "repairs_applied": float(stats.repairs_applied),
        "link_down_events": float(stats.link_down_events),
        "switch_failures": float(stats.switch_failures),
        "host_crashes": float(stats.host_crashes),
        "flows_rerouted": float(stats.flows_rerouted),
        "rerouted_bytes": stats.rerouted_bytes,
        "flows_parked": float(stats.flows_parked),
        "flow_restarts": float(stats.flow_restarts),
        "flows_recovered": float(stats.flows_recovered),
        "max_recovery_seconds": stats.max_recovery_seconds,
        "mean_recovery_seconds": stats.mean_recovery_seconds,
        "hr_rounds_total": float(stats.hr_rounds_total),
        "hr_rounds_dropped": float(stats.hr_rounds_dropped),
        "hr_rounds_delayed": float(stats.hr_rounds_delayed),
        "max_hr_staleness": stats.max_hr_staleness,
    }


def invariant_counters(result: SimulationResult) -> Dict[str, int]:
    """Violation count per invariant kind for ``result``.

    Always returns a zero-filled dict over every
    :attr:`InvariantChecker.KINDS` entry so reports can be tabulated
    uniformly; a run executed without the checker reads all-zero.
    """
    counts = {kind: 0 for kind in InvariantChecker.KINDS}
    report = result.invariant_report
    if report is not None:
        for kind, count in report.counts.items():
            counts[kind] = count
    return counts


class NetworkProbe:
    """Wraps a simulation's reallocation step to collect samples.

    Usage::

        sim = CoflowSimulation(topology, scheduler, jobs)
        probe = NetworkProbe(sim)
        result = sim.run()
        print(probe.max_starvation_streak())

    ``sample_every=n`` keeps only every n-th utilisation snapshot (the
    expensive per-link pass).  Class accounting, starvation tracking, and
    ``ever_starved`` still observe *every* reallocation round — they are
    exact regardless of the sampling rate; only the utilisation time
    series is thinned.
    """

    def __init__(
        self, simulation: CoflowSimulation, sample_every: int = 1
    ) -> None:
        if sample_every < 1:
            raise ValueError(f"sample_every must be >= 1, got {sample_every}")
        self.simulation = simulation
        self.sample_every = sample_every
        self.samples: List[UtilizationSample] = []
        self.class_accounting = ClassAccounting()
        self._capacities = simulation.topology.links.capacities()
        self._last_time: Optional[float] = None
        self._last_rates: Dict[int, Tuple[Optional[int], float]] = {}
        self._starved_since: Dict[int, float] = {}
        self._max_starvation: float = 0.0
        self._ever_starved = False
        self._rounds = 0
        original = simulation._reallocate

        def wrapped() -> None:
            self._account_elapsed()
            original()
            self._sample()

        simulation._reallocate = wrapped  # type: ignore[method-assign]

    # ------------------------------------------------------------------
    def _account_elapsed(self) -> None:
        now = self.simulation.now
        if self._last_time is not None:
            elapsed = now - self._last_time
            if elapsed > 0:
                for _flow_id, (priority, rate) in self._last_rates.items():
                    self.class_accounting.record(priority, rate, elapsed)
        self._last_time = now

    def _sample(self) -> None:
        sim = self.simulation
        now = sim.now
        starved = 0
        last_rates: Dict[int, Tuple[Optional[int], float]] = {}
        # Exact bookkeeping, every round: the class accounting and the
        # starvation detector must see every rate assignment or their
        # totals drift.
        for flow in sim._active.values():
            last_rates[flow.flow_id] = (flow.priority, flow.rate)
            if flow.rate <= 0.0:
                starved += 1
                start = self._starved_since.setdefault(flow.flow_id, now)
                self._max_starvation = max(self._max_starvation, now - start)
            else:
                self._starved_since.pop(flow.flow_id, None)
        self._last_rates = last_rates
        if starved:
            self._ever_starved = True
        take_snapshot = self._rounds % self.sample_every == 0
        self._rounds += 1
        if not take_snapshot:
            return
        # Thinned snapshot: the per-link pass is the probe's hot cost.
        usage = [0.0] * len(self._capacities)
        for flow in sim._active.values():
            for link_id in flow.route:
                usage[link_id] += flow.rate
        utilizations = [
            use / cap for use, cap in zip(usage, self._capacities) if cap > 0
        ]
        busiest = max(utilizations, default=0.0)
        mean = sum(utilizations) / len(utilizations) if utilizations else 0.0
        self.samples.append(
            UtilizationSample(
                time=now,
                active_flows=len(sim._active),
                busiest_link_utilization=busiest,
                mean_link_utilization=mean,
                starved_flows=starved,
            )
        )

    # ------------------------------------------------------------------
    # Report helpers
    # ------------------------------------------------------------------
    def peak_utilization(self) -> float:
        return max((s.busiest_link_utilization for s in self.samples), default=0.0)

    def mean_utilization(self) -> float:
        if not self.samples:
            return 0.0
        return sum(s.mean_link_utilization for s in self.samples) / len(self.samples)

    def ever_starved(self) -> bool:
        """Did any flow sit at rate zero at some reallocation instant?

        Exact at any ``sample_every``: tracked per round, not per
        retained snapshot.
        """
        return self._ever_starved

    def max_starvation_streak(self) -> float:
        """Longest continuous time one flow spent at rate zero."""
        # Close out flows still starved at the end of the run.
        now = self.simulation.now
        for start in self._starved_since.values():
            self._max_starvation = max(self._max_starvation, now - start)
        return self._max_starvation

    def bytes_by_class(self) -> Dict[int, float]:
        return dict(self.class_accounting.bytes_served)

    def engine_stats(self) -> EngineStats:
        """Live incremental-engine counters."""
        return self.simulation.engine.stats

    def invariant_report(self) -> Optional[InvariantReport]:
        """Live invariant-checker report (None when checking is off)."""
        checker = self.simulation.invariants
        return checker.report() if checker is not None else None
