"""Multi-seed trials: mean and spread of improvement factors.

A single seed is one draw of the synthetic trace; the paper's factors are
averages over a real hour of traffic.  The trial runner replays a scenario
over several seeds and reports mean ± standard deviation of each
comparison, so a bench can distinguish a robust win from seed noise.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Union

from repro.errors import ExperimentError
from repro.experiments.common import ScenarioConfig, ScenarioResult
from repro.experiments.parallel import GridReport, WorkUnit, grid_of, run_grid


@dataclass(frozen=True)
class TrialStats:
    """Mean and sample standard deviation of one comparison across seeds."""

    mean: float
    std: float
    samples: int

    @staticmethod
    def from_values(values: Sequence[float]) -> "TrialStats":
        if not values:
            raise ValueError("no samples")
        n = len(values)
        mean = sum(values) / n
        if n < 2:
            return TrialStats(mean=mean, std=0.0, samples=n)
        variance = sum((v - mean) ** 2 for v in values) / (n - 1)
        return TrialStats(mean=mean, std=math.sqrt(variance), samples=n)

    def __str__(self) -> str:
        return f"{self.mean:.2f}±{self.std:.2f} (n={self.samples})"


@dataclass
class TrialResult:
    """Per-seed scenario outcomes plus aggregated improvement factors."""

    config: ScenarioConfig
    outcomes: List[ScenarioResult]
    #: the engine report behind this trial (units, cache hits, timings)
    report: Optional[GridReport] = field(default=None, compare=False)

    @classmethod
    def from_grid(cls, grid: GridReport) -> "TrialResult":
        """Assemble a trial from a completed grid of :func:`trial_units`.

        The units carry the scenario, so this also reads grids run
        elsewhere — e.g. a supervised or resumed run of the same units.
        """
        return cls(
            config=grid.units[0].config,
            outcomes=grid.scenario_results(),
            report=grid,
        )

    def improvement_stats(
        self, reference: str = "gurita"
    ) -> Dict[str, TrialStats]:
        """Mean ± std of each comparator's improvement factor."""
        per_scheduler: Dict[str, List[float]] = {}
        for outcome in self.outcomes:
            for name, factor in outcome.improvements_over(reference).items():
                per_scheduler.setdefault(name, []).append(factor)
        return {
            name: TrialStats.from_values(values)
            for name, values in per_scheduler.items()
        }

    def average_jct_stats(self) -> Dict[str, TrialStats]:
        """Mean ± std of each policy's average JCT across seeds."""
        per_scheduler: Dict[str, List[float]] = {}
        for outcome in self.outcomes:
            for name, jct in outcome.average_jcts().items():
                per_scheduler.setdefault(name, []).append(jct)
        return {
            name: TrialStats.from_values(values)
            for name, values in per_scheduler.items()
        }

    def gap_stats(self) -> Dict[str, TrialStats]:
        """Mean ± std of each policy's mean optimality gap across seeds.

        Unlike :meth:`improvement_stats` this is an absolute yardstick —
        each seed's value is measured JCT over the combinatorial lower
        bound (see :mod:`repro.theory.lowerbound`), so 1.00 means the
        policy hit the physical floor on that draw of the trace.
        """
        per_scheduler: Dict[str, List[float]] = {}
        for outcome in self.outcomes:
            for name, gap in outcome.mean_optimality_gaps().items():
                per_scheduler.setdefault(name, []).append(gap)
        return {
            name: TrialStats.from_values(values)
            for name, values in per_scheduler.items()
        }


def trial_units(
    config: ScenarioConfig,
    seeds: Sequence[int] = (1, 2, 3),
    schedulers: Optional[Sequence[str]] = None,
) -> List[WorkUnit]:
    """One unit per replicate seed, in seed order (policies fixed)."""
    if not seeds:
        raise ExperimentError("trials need at least one seed")
    return grid_of([config], seeds=seeds, schedulers=schedulers)


def run_trials(
    config: ScenarioConfig,
    seeds: Sequence[int] = (1, 2, 3),
    schedulers: Optional[Sequence[str]] = None,
    parallel: int = 1,
    cache_dir: Optional[Union[str, Path]] = None,
) -> TrialResult:
    """Replay the scenario once per seed (workloads differ, policies fixed).

    Seeds fan out across ``parallel`` workers through the grid engine;
    outcomes come back in seed order and are bit-identical to a serial
    (``parallel=1``) run.  A failed seed raises
    :class:`repro.errors.GridExecutionError` after its retry.
    """
    units = trial_units(config, seeds, schedulers)
    return TrialResult.from_grid(
        run_grid(units, parallel=parallel, cache_dir=cache_dir)
    )
