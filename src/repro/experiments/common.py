"""Shared experiment harness: run one scenario across many schedulers.

Each paper experiment (Figures 5–8) is a scenario — a (structure, arrival
pattern, topology, load) tuple — replayed once per scheduling policy on an
identical workload.  Jobs are rebuilt from the same seed for every policy,
so all policies see byte-identical workloads.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import TYPE_CHECKING, Any, Dict, List, Optional, Sequence, Tuple, Union

from repro.errors import ExperimentError
from repro.jobs.job import Job
from repro.metrics.improvement import (
    overall_improvement,
    per_category_improvement,
)
from repro.schedulers.base import SchedulerPolicy
from repro.schedulers.registry import make_scheduler
from repro.simulator.runtime import CoflowSimulation, SimulationResult
from repro.simulator.topology.base import Topology
from repro.simulator.topology.bigswitch import BigSwitchTopology
from repro.simulator.topology.fattree import FatTreeTopology
from repro.simulator.topology.links import TEN_GBPS
from repro.workloads.generator import synthesize_workload

if TYPE_CHECKING:  # imported lazily inside build_fault_profile at runtime
    from repro.simulator.faults import FaultProfile

#: The comparators of the paper's evaluation, plus Gurita itself.
PAPER_SCHEDULERS: Tuple[str, ...] = ("pfs", "baraat", "stream", "aalo", "gurita")


@dataclass(frozen=True)
class ScenarioConfig:
    """One experiment scenario.

    The defaults pick a laptop-scale rendition of the paper's 8-pod
    FatTree experiments; the bursty large-scale scenario of Figure 7
    raises ``fattree_k`` and ``num_jobs`` (the paper's 48 pods / 10,000
    jobs are a flag away but take hours in pure Python).
    """

    name: str = "scenario"
    structure: str = "fb-tao"
    num_jobs: int = 60
    #: network substrate: "fattree" (the paper's) or "bigswitch" (the
    #: non-blocking analysis abstraction — fastest for wide grids)
    topology: str = "fattree"
    fattree_k: int = 8
    #: host count for the big-switch fabric; 0 = a 16-host default
    num_hosts: int = 0
    #: uniform link capacity in bytes/s; 0.0 = the topology's default
    #: 10 Gb/s (the paper's switch speed) — the gap harness scales this
    #: to check that optimality gaps are capacity-scale-invariant
    link_capacity: float = 0.0
    arrival_mode: str = "uniform"
    seed: int = 42
    size_scale: float = 1.0
    max_fanin: int = 16
    offered_load: float = 1.5
    burst_size: int = 10
    burst_gap: float = 1.0
    duration: Optional[float] = None
    schedulers: Tuple[str, ...] = PAPER_SCHEDULERS
    #: canned fault profile name ("" = perfect fabric, the historical
    #: behaviour); see :func:`repro.simulator.faults.profile_from_name`
    fault_profile: str = ""
    #: scales incident counts / HR degradation of the canned profile
    fault_intensity: float = 1.0
    #: pins the fault stream; 0 = derive from the workload seed
    fault_seed: int = 0

    def with_overrides(self, **kwargs: Any) -> "ScenarioConfig":
        return replace(self, **kwargs)


@dataclass
class ScenarioResult:
    """All policies' results on one scenario's workload."""

    config: ScenarioConfig
    results: Dict[str, SimulationResult] = field(default_factory=dict)

    def average_jcts(self) -> Dict[str, float]:
        return {name: r.average_jct() for name, r in self.results.items()}

    def improvements_over(self, reference: str = "gurita") -> Dict[str, float]:
        """Improvement factor of ``reference`` over every other policy."""
        ref = self.results[reference]
        return {
            name: overall_improvement(result, ref)
            for name, result in self.results.items()
            if name != reference
        }

    def category_improvements_over(
        self, reference: str = "gurita"
    ) -> Dict[str, Dict[int, float]]:
        """Per-category improvement of ``reference`` over each policy."""
        ref = self.results[reference]
        return {
            name: per_category_improvement(result, ref)
            for name, result in self.results.items()
            if name != reference
        }

    def mean_optimality_gaps(self) -> Dict[str, float]:
        """Mean measured-JCT / lower-bound ratio per policy (>= 1.0).

        The bound rate is the scenario topology's host NIC capacity; see
        :mod:`repro.theory.lowerbound` for the bound definitions and
        :mod:`repro.theory.gap` for the full harness built on this.
        """
        # Function-level import: repro.theory.gap imports this module, so
        # a module-level import here would cycle through the package inits.
        from repro.theory.lowerbound import mean_optimality_gap

        link_rate = scenario_link_rate(self.config)
        return {
            name: mean_optimality_gap(result, link_rate)
            for name, result in sorted(self.results.items())
        }


def scenario_link_rate(config: ScenarioConfig) -> float:
    """The scenario topology's host NIC rate without building the fabric.

    Both concrete fabrics are uniform-capacity, so the slowest host NIC
    is exactly the configured ``link_capacity`` (10 Gb/s when unset);
    ``tests/unit/test_topology.py`` pins this against
    ``build_topology(config).host_link_capacity``.  Bound computations
    over *replayed* results (grid payloads, cached cells) must use this
    pure form: feeding a payload-derived config back into
    ``build_topology`` would alias the simulator's own topology
    construction in the determinism-taint analysis.
    """
    if config.link_capacity > 0.0:
        return config.link_capacity
    return TEN_GBPS


def build_topology(config: ScenarioConfig) -> Topology:
    """The scenario's network substrate (deterministic in the config)."""
    if config.topology == "fattree":
        if config.link_capacity > 0.0:
            return FatTreeTopology(
                k=config.fattree_k, link_capacity=config.link_capacity
            )
        return FatTreeTopology(k=config.fattree_k)
    if config.topology == "bigswitch":
        if config.link_capacity > 0.0:
            return BigSwitchTopology(
                num_hosts=config.num_hosts or 16,
                link_capacity=config.link_capacity,
            )
        return BigSwitchTopology(num_hosts=config.num_hosts or 16)
    raise ExperimentError(
        f"unknown topology {config.topology!r}; expected 'fattree' or "
        "'bigswitch'"
    )


def build_jobs(config: ScenarioConfig, num_hosts: int) -> List[Job]:
    """The scenario's workload (deterministic in the config's seed)."""
    return synthesize_workload(
        num_jobs=config.num_jobs,
        num_hosts=num_hosts,
        structure=config.structure,
        seed=config.seed,
        arrival_mode=config.arrival_mode,
        duration=config.duration,
        offered_load=config.offered_load,
        burst_size=config.burst_size,
        burst_gap=config.burst_gap,
        size_scale=config.size_scale,
        max_fanin=config.max_fanin,
    )


def build_fault_profile(config: ScenarioConfig) -> Optional["FaultProfile"]:
    """The scenario's fault profile, or None for the perfect fabric.

    The fault-stream seed is derived from ``fault_seed`` (or, when 0,
    the workload seed) and the profile name — a pure function of the
    config, so every scheduler replay and every execution mode (serial
    or ``run_grid``) injects a bit-identical fault timeline.
    """
    if not config.fault_profile:
        return None
    from repro.simulator.faults import derive_fault_seed, profile_from_name

    base_seed = config.fault_seed if config.fault_seed else config.seed
    return profile_from_name(
        config.fault_profile,
        intensity=config.fault_intensity,
        seed=derive_fault_seed(base_seed, config.fault_profile),
    )


def build_simulation(
    config: ScenarioConfig,
    policy: Union[str, SchedulerPolicy],
    checkpoint_every: Optional[float] = None,
    checkpoint_path: Optional[Path] = None,
) -> CoflowSimulation:
    """The scenario's simulation under one policy, ready to ``run()``.

    The one place a config becomes a simulation: fabric, workload and
    fault profile all come from the config, so every caller (plain,
    supervised, ablation) replays the same scenario.  ``policy`` is a
    registry name or a ready-made policy instance (ablation variants).
    """
    topology = build_topology(config)
    jobs = build_jobs(config, topology.num_hosts)
    scheduler = make_scheduler(policy) if isinstance(policy, str) else policy
    return CoflowSimulation(
        topology,
        scheduler,
        jobs,
        faults=build_fault_profile(config),
        checkpoint_every=checkpoint_every,
        checkpoint_path=checkpoint_path,
    )


def run_scenario(
    config: ScenarioConfig,
    schedulers: Optional[Sequence[str]] = None,
) -> ScenarioResult:
    """Replay the scenario once per scheduler on identical workloads."""
    names: List[str] = list(schedulers if schedulers is not None else config.schedulers)
    outcome = ScenarioResult(config=config)
    for name in names:
        outcome.results[name] = build_simulation(config, name).run()
    return outcome
