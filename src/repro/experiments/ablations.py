"""Ablations of Gurita's design choices (DESIGN.md §6).

Each function returns a family of Gurita configurations spanning one
design dimension; the ablation benchmarks run them on a fixed scenario to
show the knob's effect:

* rule-4 critical-path bonus λ on/off,
* starvation mitigation (WRR emulation) vs raw SPQ,
* number of priority queues,
* head-receiver update interval δ,
* demotion-threshold spacing.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Tuple

from repro.core.config import GuritaConfig
from repro.core.gurita import GuritaScheduler
from repro.experiments.common import ScenarioConfig, build_simulation
from repro.simulator.runtime import SimulationResult


def run_gurita_variant(
    scenario: ScenarioConfig, config: GuritaConfig
) -> SimulationResult:
    """Run one Gurita configuration on the scenario (fabric, workload, faults)."""
    return build_simulation(scenario, GuritaScheduler(config)).run()


def run_variants(
    scenario: ScenarioConfig, variants: Dict[str, GuritaConfig]
) -> Dict[str, SimulationResult]:
    """Run a named family of Gurita configurations on one scenario."""
    return {
        name: run_gurita_variant(scenario, config)
        for name, config in variants.items()
    }


def critical_path_variants(
    bonuses: Iterable[float] = (0.0, 0.1, 0.3),
) -> Dict[str, GuritaConfig]:
    """Rule 4 on/off and at different strengths."""
    return {
        f"lambda={bonus:g}": GuritaConfig(critical_path_bonus=bonus)
        for bonus in bonuses
    }


def starvation_variants() -> Dict[str, GuritaConfig]:
    """WRR-emulated SPQ (the paper's mitigation) vs raw SPQ."""
    return {
        "wrr": GuritaConfig(starvation_mitigation=True),
        "spq": GuritaConfig(starvation_mitigation=False),
    }


def queue_count_variants(
    counts: Iterable[int] = (2, 4, 8),
) -> Dict[str, GuritaConfig]:
    """Number of switch priority queues (the paper evaluates with 4)."""
    return {f"K={count}": GuritaConfig(num_classes=count) for count in counts}


def update_interval_variants(
    deltas: Iterable[float] = (2e-3, 8e-3, 32e-3, 128e-3),
) -> Dict[str, GuritaConfig]:
    """Head-receiver coordination period δ."""
    return {f"delta={delta:g}": GuritaConfig(update_interval=delta) for delta in deltas}


def threshold_variants(
    bases: Iterable[float] = (2.0, 10.0, 100.0),
) -> Dict[str, GuritaConfig]:
    """Exponential spacing factor of the demotion thresholds."""
    return {f"base={base:g}": GuritaConfig(psi_base=base) for base in bases}


def wrr_weight_mode_variants() -> Dict[str, GuritaConfig]:
    """Inverse-wait weights (our reading) vs the paper's literal formula."""
    return {
        "inverse-wait": GuritaConfig(wrr_weight_mode="inverse_wait"),
        "literal": GuritaConfig(wrr_weight_mode="literal"),
    }


def summarize(results: Dict[str, SimulationResult]) -> List[Tuple[str, float]]:
    """(variant, average JCT) pairs, fastest first."""
    return sorted(
        ((name, result.average_jct()) for name, result in results.items()),
        key=lambda pair: pair[1],
    )
