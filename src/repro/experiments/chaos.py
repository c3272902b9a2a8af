"""Chaos experiments: scheduler robustness under injected faults.

A chaos run replays one scenario twice-or-more on byte-identical
workloads — once on the perfect fabric (the baseline) and once per
requested fault profile — and reports how gracefully each scheduling
policy degrades: the JCT inflation relative to the baseline, plus the
fault-handling counters (reroutes, restarts, recovery times, HR
staleness) of every faulted run.

Determinism contract: the fault timeline of each faulted run is a pure
function of ``(fault seed, profile name, topology, horizon)`` — see
:mod:`repro.simulator.faults` — so a chaos report is bit-identical
across repetitions, across ``parallel=N`` settings, and across cache
hits vs misses.  The differential suite asserts exactly that.

Usage::

    report = run_chaos(ScenarioConfig(num_jobs=40), profiles=("link-flap",))
    print(format_degradation_table(report))
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple, Union

from repro.errors import ExperimentError
from repro.experiments.common import ScenarioConfig, ScenarioResult
from repro.experiments.parallel import (
    GridReport,
    ProgressHook,
    grid_of,
    run_grid,
)
from repro.simulator.faults import CANNED_PROFILES
from repro.simulator.observability import fault_counters

#: The baseline's key in every per-profile mapping of a chaos report.
BASELINE = "baseline"


@dataclass
class ChaosReport:
    """One scenario's baseline-vs-faulted comparison, per profile."""

    config: ScenarioConfig
    profiles: Tuple[str, ...]
    #: profile name -> that profile's scenario result (all schedulers);
    #: the perfect-fabric run sits under :data:`BASELINE`
    outcomes: Dict[str, ScenarioResult] = field(default_factory=dict)
    #: the grid engine's execution report (cache hits, retries, timing)
    grid: Optional[GridReport] = None

    @classmethod
    def from_grid(cls, config: ScenarioConfig, grid: GridReport) -> "ChaosReport":
        """Assemble the report from a completed grid of :func:`chaos_configs`.

        The baseline is the first unit; every later unit is one profile,
        named by its config's ``fault_profile``.
        """
        results = grid.scenario_results()
        profiles = tuple(unit.config.fault_profile for unit in grid.units[1:])
        report = cls(config=config, profiles=profiles, grid=grid)
        report.outcomes[BASELINE] = results[0]
        report.outcomes.update(zip(profiles, results[1:]))
        return report

    @property
    def baseline(self) -> ScenarioResult:
        return self.outcomes[BASELINE]

    def average_jcts(self, profile: str) -> Dict[str, float]:
        """Average JCT per scheduler under ``profile``."""
        return self.outcomes[profile].average_jcts()

    def degradation(self, profile: str) -> Dict[str, float]:
        """JCT inflation per scheduler: faulted avg JCT / baseline avg JCT.

        1.0 means the policy fully absorbed the faults; 2.0 means jobs
        took twice as long on average.  Values below 1.0 are possible in
        principle (a fault can accidentally relieve contention).
        """
        base = self.baseline.average_jcts()
        faulted = self.outcomes[profile].average_jcts()
        return {
            name: faulted[name] / base[name] if base[name] > 0 else 0.0
            for name in sorted(faulted)
        }

    def fault_counters(self, profile: str) -> Dict[str, Dict[str, float]]:
        """Per-scheduler fault-injection counters under ``profile``."""
        outcome = self.outcomes[profile]
        return {
            name: fault_counters(result)
            for name, result in sorted(outcome.results.items())
        }


def chaos_configs(
    config: ScenarioConfig,
    profiles: Sequence[str] = CANNED_PROFILES,
    intensity: float = 1.0,
    fault_seed: int = 0,
) -> List[ScenarioConfig]:
    """The scenario list of a chaos run: baseline first, then one per profile.

    Each faulted config differs from the baseline only in its fault
    fields, so every run replays a byte-identical workload — the JCT
    deltas measure the faults, nothing else.
    """
    if not profiles:
        raise ExperimentError("chaos run needs at least one fault profile")
    baseline = config.with_overrides(
        name=f"{config.name}@{BASELINE}",
        fault_profile="",
        fault_intensity=1.0,
        fault_seed=0,
    )
    configs = [baseline]
    for profile in profiles:
        configs.append(
            config.with_overrides(
                name=f"{config.name}@{profile}",
                fault_profile=profile,
                fault_intensity=intensity,
                fault_seed=fault_seed,
            )
        )
    return configs


def run_chaos(
    config: ScenarioConfig,
    profiles: Sequence[str] = CANNED_PROFILES,
    intensity: float = 1.0,
    fault_seed: int = 0,
    parallel: int = 1,
    cache_dir: Optional[Union[str, Path]] = None,
    progress: Optional[ProgressHook] = None,
) -> ChaosReport:
    """Run the chaos comparison for one scenario.

    The baseline and every profile run are independent work units, so
    they fan out across ``parallel`` workers and reuse the on-disk
    result cache exactly like figure grids do; results are bit-identical
    to the serial run.  ``fault_seed=0`` derives the fault streams from
    the workload seed (the default coupling); pin a nonzero value to
    vary faults while holding the workload fixed.
    """
    configs = chaos_configs(
        config, profiles, intensity=intensity, fault_seed=fault_seed
    )
    grid = run_grid(
        grid_of(configs), parallel=parallel, cache_dir=cache_dir, progress=progress
    )
    return ChaosReport.from_grid(config, grid)
