"""Parameter sweeps: how comparisons move as one knob turns.

The paper reports point comparisons; sweeps show *where crossovers fall*
— e.g. the offered load at which priority scheduling starts paying off
over fair sharing, or how the Gurita-vs-Aalo gap moves with burstiness.

Sweep points are independent scenarios, so every ``sweep_*`` function
fans its knob values across the grid engine
(:mod:`repro.experiments.parallel`); ``parallel=1`` (the default) is the
serial degenerate case and produces bit-identical series.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Union

from repro.experiments.common import ScenarioConfig
from repro.experiments.parallel import GridReport, grid_of, run_grid


@dataclass
class SweepPoint:
    """One knob value and the per-policy average JCTs measured there."""

    value: float
    average_jcts: Dict[str, float]

    def improvement(self, baseline: str, reference: str = "gurita") -> float:
        """``baseline`` avg JCT over ``reference`` avg JCT (>1 = reference wins)."""
        for name in (baseline, reference):
            if name not in self.average_jcts:
                raise KeyError(
                    f"scheduler {name!r} was not part of this sweep point "
                    f"(measured: {sorted(self.average_jcts)})"
                )
        return self.average_jcts[baseline] / self.average_jcts[reference]


@dataclass
class SweepResult:
    """A labelled series of sweep points."""

    knob: str
    points: List[SweepPoint] = field(default_factory=list)
    #: the engine report behind this sweep (units, cache hits, timings)
    report: Optional[GridReport] = field(default=None, compare=False)

    def series(self, scheduler: str) -> List[float]:
        """The scheduler's average JCT at each knob value."""
        return [point.average_jcts[scheduler] for point in self.points]

    def improvement_series(
        self, baseline: str, reference: str = "gurita"
    ) -> List[float]:
        return [point.improvement(baseline, reference) for point in self.points]

    def crossover(
        self,
        baseline: str,
        reference: str = "gurita",
        sustained: bool = False,
    ) -> float:
        """The knob value where the reference starts beating the baseline.

        By default this is the *first crossing*: the first point whose
        improvement factor exceeds 1.0, even when a later point dips
        back below — a non-monotone series (common under bursty
        arrivals, where mid-range burst sizes can favour either policy)
        reports its earliest win, not a sustained one.  Pass
        ``sustained=True`` for the first point from which the
        improvement stays above 1.0 through the end of the sweep.

        Returns ``inf`` when the reference never crosses under the
        chosen semantics, and for an empty sweep (no points, nothing
        crossed).
        """
        factors = [
            (point.value, point.improvement(baseline, reference))
            for point in self.points
        ]
        if sustained:
            for index, (value, _) in enumerate(factors):
                if all(factor > 1.0 for _, factor in factors[index:]):
                    return value
            return float("inf")
        for value, factor in factors:
            if factor > 1.0:
                return value
        return float("inf")


def _run_sweep(
    knob: str,
    values: Sequence[float],
    configs: Sequence[ScenarioConfig],
    schedulers: Sequence[str],
    parallel: int,
    cache_dir: Optional[Union[str, Path]],
) -> SweepResult:
    """Fan one config per knob value across the grid engine."""
    units = grid_of(configs, schedulers=schedulers)
    report = run_grid(units, parallel=parallel, cache_dir=cache_dir)
    points = [
        SweepPoint(value=float(value), average_jcts=outcome.average_jcts())
        for value, outcome in zip(values, report.scenario_results())
    ]
    return SweepResult(knob=knob, points=points, report=report)


def sweep_offered_load(
    loads: Sequence[float],
    base: Optional[ScenarioConfig] = None,
    schedulers: Sequence[str] = ("pfs", "gurita"),
    parallel: int = 1,
    cache_dir: Optional[Union[str, Path]] = None,
) -> SweepResult:
    """Sweep the offered-load calibration of the arrival span."""
    base = base if base is not None else ScenarioConfig(num_jobs=30)
    return _run_sweep(
        "offered_load",
        list(loads),
        [base.with_overrides(offered_load=load) for load in loads],
        schedulers,
        parallel,
        cache_dir,
    )


def sweep_burst_size(
    burst_sizes: Sequence[int],
    base: Optional[ScenarioConfig] = None,
    schedulers: Sequence[str] = ("pfs", "gurita"),
    parallel: int = 1,
    cache_dir: Optional[Union[str, Path]] = None,
) -> SweepResult:
    """Sweep burst size under bursty arrivals (burstiness knob)."""
    base = (
        base
        if base is not None
        else ScenarioConfig(num_jobs=30, arrival_mode="bursty")
    )
    return _run_sweep(
        "burst_size",
        [float(size) for size in burst_sizes],
        [base.with_overrides(burst_size=size) for size in burst_sizes],
        schedulers,
        parallel,
        cache_dir,
    )


def sweep_num_jobs(
    job_counts: Sequence[int],
    base: Optional[ScenarioConfig] = None,
    schedulers: Sequence[str] = ("pfs", "gurita"),
    parallel: int = 1,
    cache_dir: Optional[Union[str, Path]] = None,
) -> SweepResult:
    """Sweep workload size at constant offered load (scale knob)."""
    base = base if base is not None else ScenarioConfig()
    return _run_sweep(
        "num_jobs",
        [float(count) for count in job_counts],
        [base.with_overrides(num_jobs=count) for count in job_counts],
        schedulers,
        parallel,
        cache_dir,
    )
