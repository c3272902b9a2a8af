"""Serialization of experiment results to plain dictionaries / JSON files.

Lets the benchmark harness (or a user's own sweep) persist what a run
measured — per-job JCTs, category breakdowns, improvement factors — so
figures can be re-rendered without re-simulating.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import TYPE_CHECKING, Any, Dict, List, Mapping, Union

from repro.errors import ReproError
from repro.metrics.improvement import per_category_improvement
from repro.metrics.jct import average_jct_by_category, jct_summary
from repro.simulator.runtime import SimulationResult
from repro.workloads.categories import category_of

if TYPE_CHECKING:  # import-only: keeps metrics below the experiments layer
    from repro.experiments.parallel import GridReport


def result_to_dict(result: SimulationResult) -> Dict[str, Any]:
    """A JSON-safe record of one simulation run."""
    jobs: List[Dict[str, Any]] = []
    for job in result.jobs:
        jobs.append(
            {
                "job_id": job.job_id,
                "arrival_time": job.arrival_time,
                "total_bytes": job.total_bytes,
                "category": category_of(job.total_bytes),
                "num_stages": job.num_stages,
                "num_coflows": len(job.coflows),
                "num_flows": sum(len(c.flows) for c in job.coflows),
                "jct": job.completion_time(),
            }
        )
    summary = jct_summary(result)
    return {
        "scheduler": result.scheduler_name,
        "makespan": result.makespan,
        "events_processed": result.events_processed,
        "reallocations": result.reallocations,
        "average_jct": summary.mean,
        "median_jct": summary.median,
        "p95_jct": summary.p95,
        "jct_by_category": {
            str(cat): value
            for cat, value in average_jct_by_category(result).items()
        },
        "jobs": jobs,
    }


def comparison_to_dict(
    results: Mapping[str, SimulationResult],
    reference: str = "gurita",
) -> Dict[str, Any]:
    """A JSON-safe record of a multi-policy comparison on one workload."""
    record: Dict[str, Any] = {
        "reference": reference,
        "results": {name: result_to_dict(r) for name, r in results.items()},
    }
    if reference in results:
        ref = results[reference]
        record["improvement_over_reference"] = {
            name: r.average_jct() / ref.average_jct()
            for name, r in results.items()
            if name != reference
        }
        record["category_improvement"] = {
            name: {
                str(cat): value
                for cat, value in per_category_improvement(r, ref).items()
            }
            for name, r in results.items()
            if name != reference
        }
    return record


def grid_report_to_dict(report: "GridReport") -> Dict[str, Any]:
    """A JSON-safe record of one parallel-engine grid run.

    Per-unit comparison records in submission order (``None`` for failed
    units), the structured failures report, and the engine's counters —
    everything a resumed or audited grid needs.
    """
    return {
        "units": [unit.describe() for unit in report.units],
        "results": [
            comparison_to_dict(outcome.results) if outcome is not None else None
            for outcome in report.results
        ],
        "failures": [failure.to_dict() for failure in report.failures],
        "stats": report.stats.counters(),
    }


def save_json(record: Dict[str, Any], path: Union[str, Path]) -> Path:
    """Write a record as pretty-printed JSON; returns the path."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(record, indent=2, sort_keys=True))
    return path


def load_json(path: Union[str, Path]) -> Dict[str, Any]:
    """Load a record previously written by :func:`save_json`."""
    record = json.loads(Path(path).read_text())
    if not isinstance(record, dict):
        raise ReproError(
            f"{path}: expected a JSON object at the top level, "
            f"got {type(record).__name__}"
        )
    return record
