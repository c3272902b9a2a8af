"""Incremental allocation engine: exact audit and rebuild counts.

The engine's acceptance bench.  Each workload runs twice: once plain
(timed), and once with the strict invariant checker auditing every
allocation against a from-scratch rebuild (``audit_interval = 1``: link
memberships, class layout, and rates compared with ``==``).  A clean
audited run is bit-identical to one that recomputed every allocation
from scratch, so the bench requires a clean audit, JCTs equal to the
plain run, and the engine's exact class-membership rebuild count: none
for the max-min ``pfs`` policy, one (the first classed request) for the
classed ``gurita`` policy.  The smoke variant is small enough for a CI
minute.
"""

import time

from _util import bench_jobs

from repro.experiments.common import ScenarioConfig, build_jobs
from repro.experiments.figures import figure5_configs, figure6_config
from repro.schedulers.registry import make_scheduler
from repro.simulator.observability import allocation_counters
from repro.simulator.runtime import CoflowSimulation
from repro.simulator.topology.fattree import FatTreeTopology

#: Exact ``EngineStats.full_rebuilds`` per policy: MAXMIN never builds
#: class memberships, and a classed policy with a fixed class count
#: builds them once.
EXPECTED_REBUILDS = {"pfs": 0, "gurita": 1}


def _run_pair(config, scheduler_name):
    """One workload, plain and audited; returns {audited: (result, s)}."""
    outcome = {}
    for audited in (False, True):
        topology = FatTreeTopology(k=config.fattree_k)
        jobs = build_jobs(config, topology.num_hosts)
        sim = CoflowSimulation(
            topology,
            make_scheduler(scheduler_name),
            jobs,
            check_invariants=audited,
            strict_invariants=audited,
        )
        if audited:
            sim.invariants.audit_interval = 1
        start = time.perf_counter()
        result = sim.run()
        outcome[audited] = (result, time.perf_counter() - start)
    return outcome


def _report_row(label, scheduler_name, outcome):
    (plain, plain_s) = outcome[False]
    (audited, audited_s) = outcome[True]
    report = audited.invariant_report
    assert report is not None and report.clean, report.summary()
    assert audited.job_completion_times() == plain.job_completion_times()
    assert audited.engine_stats == plain.engine_stats
    rebuilds = plain.engine_stats.full_rebuilds
    assert rebuilds == EXPECTED_REBUILDS[scheduler_name], (
        f"{label}: {rebuilds} full rebuilds, expected "
        f"{EXPECTED_REBUILDS[scheduler_name]}"
    )
    counters = allocation_counters(plain)
    print(
        f"  {label:24s} allocations {plain.engine_stats.allocations:5d}  "
        f"rebuilds {rebuilds:2d}  skip {counters.skip_fraction:4.0%}  "
        f"cache-hits {counters.cache_hits:4d}  rows {counters.rows_updated:5d}  "
        f"{plain_s:5.2f}s (audited {audited_s:5.2f}s)"
    )


def test_engine_smoke(run_once):
    """CI-sized check: clean exact audit, exact rebuilds, under a minute."""

    def experiment():
        config = ScenarioConfig(
            name="engine-smoke", num_jobs=12, fattree_k=4, seed=11
        )
        return {name: _run_pair(config, name) for name in ("pfs", "gurita")}

    outcomes = run_once(experiment)
    print("\nENGINE SMOKE  incremental allocation, every allocation audited:")
    for name, outcome in outcomes.items():
        _report_row(name, name, outcome)


def test_engine_rebuild_savings_scalability(run_once):
    """The acceptance criterion on the scalability workloads."""

    def experiment():
        rows = {}
        for k, jobs_count in ((4, 20), (8, bench_jobs(40))):
            config = ScenarioConfig(
                name=f"engine-k{k}", num_jobs=jobs_count, fattree_k=k, seed=3
            )
            rows[f"k={k} jobs={jobs_count}"] = _run_pair(config, "gurita")
        return rows

    rows = run_once(experiment)
    print("\nENGINE SCALABILITY  audited incremental allocation (gurita policy):")
    for label, outcome in rows.items():
        _report_row(label, "gurita", outcome)


def test_engine_parity_on_paper_workloads(run_once):
    """Figures 5 and 6 workloads: every allocation matches from scratch."""

    def experiment():
        configs = [
            c.with_overrides(num_jobs=bench_jobs(24))
            for c in figure5_configs(seed=42)
        ] + [figure6_config("fb-tao", num_jobs=bench_jobs(30), seed=42)]
        rows = {}
        for config in configs:
            small = config.with_overrides(fattree_k=4)
            rows[config.name] = _run_pair(small, "gurita")
        return rows

    rows = run_once(experiment)
    print("\nENGINE PARITY  paper workloads, audited (gurita policy):")
    for label, outcome in rows.items():
        _report_row(label, "gurita", outcome)
