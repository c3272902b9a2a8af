"""The paper's evaluation figures as runnable experiment definitions.

Each ``figureN_*`` function returns the scenario configs for the
corresponding paper artifact and :func:`run_figure_configs` runs them;
the benchmark suite under ``benchmarks/`` calls these and prints the
same rows/series the paper reports.  Figure 2 and Figure 4 (the
motivating examples) live in :mod:`repro.theory.examples` since they
are analytic.

Scale note: the paper's trace has coflows from 150 racks replayed over an
hour, and its bursty scenario uses a 48-pod FatTree with 10,000 jobs.  The
defaults here are laptop-scale renditions — the same 8-pod FatTree as the
paper's trace-driven runs, with arrival spans calibrated to the same
sustained-overload regime — preserving the comparisons' *shape*.  Pass
``full_scale=True`` where offered to configure the paper's original
parameters (hours of runtime in pure Python).
"""

from __future__ import annotations

from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple, Union

from repro.experiments.common import (
    PAPER_SCHEDULERS,
    ScenarioConfig,
    ScenarioResult,
)
from repro.experiments.parallel import (
    GridReport,
    ProgressHook,
    grid_of,
    run_grid,
)

#: Figure 5's four scenario columns: structure x (trace | bursty).
FIG5_SCENARIOS: Tuple[Tuple[str, str, str], ...] = (
    ("FB-t", "fb-tao", "uniform"),
    ("CD-t", "tpcds", "uniform"),
    ("FB-b", "fb-tao", "bursty"),
    ("CD-b", "tpcds", "bursty"),
)


def figure5_configs(num_jobs: int = 60, seed: int = 42) -> List[ScenarioConfig]:
    """Average improvement over PFS/Baraat/Stream/Aalo, four scenarios."""
    return [
        ScenarioConfig(
            name=name,
            structure=structure,
            arrival_mode=arrival_mode,
            num_jobs=num_jobs,
            seed=seed,
        )
        for name, structure, arrival_mode in FIG5_SCENARIOS
    ]


def figure_outcomes(grid: GridReport) -> Dict[str, ScenarioResult]:
    """``{scenario name -> result}`` of a completed figure grid, in unit order."""
    return {
        unit.config.name: outcome
        for unit, outcome in zip(grid.units, grid.scenario_results())
    }


def run_figure_configs(
    configs: Sequence[ScenarioConfig],
    parallel: int = 1,
    cache_dir: Optional[Union[str, Path]] = None,
    progress: Optional[ProgressHook] = None,
) -> Tuple[Dict[str, ScenarioResult], GridReport]:
    """Run a figure's scenario list through the grid engine.

    Returns ``({scenario name -> result}, engine report)`` with names in
    config order; ``parallel=1`` is the serial degenerate case.
    """
    report = run_grid(
        grid_of(configs), parallel=parallel, cache_dir=cache_dir, progress=progress
    )
    return figure_outcomes(report), report


def figure6_config(
    structure: str, num_jobs: int = 100, seed: int = 42
) -> ScenarioConfig:
    """Trace-driven per-category improvement (6a: fb-tao, 6b: tpcds).

    More jobs than Figure 5 so the Table-1 categories are well populated.
    """
    return ScenarioConfig(
        name=f"fig6-{structure}",
        structure=structure,
        arrival_mode="uniform",
        num_jobs=num_jobs,
        seed=seed,
    )


def figure7_config(
    structure: str,
    num_jobs: int = 100,
    seed: int = 42,
    full_scale: bool = False,
) -> ScenarioConfig:
    """Bursty large-scale per-category improvement (7a/7b).

    ``full_scale=True`` selects the paper's 48-pod FatTree and 10,000
    jobs (27,648 servers, 2,880 switches) — expect hours of runtime.
    """
    if full_scale:
        return ScenarioConfig(
            name=f"fig7-{structure}-full",
            structure=structure,
            arrival_mode="bursty",
            num_jobs=10_000,
            fattree_k=48,
            seed=seed,
            burst_size=50,
            burst_gap=0.5,
        )
    return ScenarioConfig(
        name=f"fig7-{structure}",
        structure=structure,
        arrival_mode="bursty",
        num_jobs=num_jobs,
        seed=seed,
        burst_size=10,
        burst_gap=1.0,
    )


def figure8_config(
    structure: str, num_jobs: int = 100, seed: int = 42
) -> ScenarioConfig:
    """Gurita vs the clairvoyant GuritaPlus (8a: fb-tao, 8b: tpcds)."""
    return ScenarioConfig(
        name=f"fig8-{structure}",
        structure=structure,
        arrival_mode="uniform",
        num_jobs=num_jobs,
        seed=seed,
        schedulers=("gurita", "gurita+"),
    )


__all__ = [
    "FIG5_SCENARIOS",
    "PAPER_SCHEDULERS",
    "figure5_configs",
    "figure6_config",
    "figure7_config",
    "figure8_config",
    "figure_outcomes",
    "run_figure_configs",
]
