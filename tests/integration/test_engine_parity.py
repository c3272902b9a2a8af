"""The incremental engine against its from-scratch oracle, at every allocation.

The incremental allocation engine is a pure optimisation: every rate it
hands out must equal what the legacy from-scratch allocator
(:func:`~repro.simulator.bandwidth.request.dispatch_allocation`) computes
for the same request, routes and capacities.  Each run here enables the
invariant checker in strict mode with ``audit_interval = 1``, so every
allocation is audited — memberships, class layout, and rates compared
with ``==`` — and the first divergence aborts the run.  Two runs that
differ only in how each allocation's rates are computed are identical
when every allocation's rates are, so a clean audited run has exactly
the JCTs of a run that recomputed every allocation from scratch.
"""

import pytest

from repro.experiments.common import (
    ScenarioConfig,
    build_fault_profile,
    build_jobs,
    build_topology,
)
from repro.schedulers.registry import available_schedulers, make_scheduler
from repro.simulator.runtime import CoflowSimulation

CONFIG = ScenarioConfig(name="parity", num_jobs=10, fattree_k=4, seed=7)

#: Exact ``EngineStats.full_rebuilds``: the max-min ``pfs`` never builds
#: class memberships; every classed policy builds them once, at its first
#: classed request, and updates them incrementally after that.
FULL_REBUILDS = {"pfs": 0}

#: The perfect fabric, and link flaps (capacity revocation plus reroutes).
VARIANTS = {
    "": CONFIG,
    "-link-flap": CONFIG.with_overrides(fault_profile="link-flap"),
}


def _run(scheduler_name, config=CONFIG, audit=False):
    topology = build_topology(config)
    jobs = build_jobs(config, topology.num_hosts)
    sim = CoflowSimulation(
        topology,
        make_scheduler(scheduler_name),
        jobs,
        faults=build_fault_profile(config),
        check_invariants=audit,
        strict_invariants=audit,
    )
    if audit:
        sim.invariants.audit_interval = 1
    return sim.run()


@pytest.mark.parametrize(
    "scheduler_name,variant",
    [(name, variant) for name in available_schedulers() for variant in VARIANTS],
    ids=[
        f"{name}{variant}" for name in available_schedulers() for variant in VARIANTS
    ],
)
def test_engine_matches_legacy_jcts(scheduler_name, variant):
    result = _run(scheduler_name, VARIANTS[variant], audit=True)
    assert result.all_done
    report = result.invariant_report
    assert report is not None and report.clean, report.summary()
    # One membership/rate audit per engine allocation, on top of the
    # per-allocation conservation check and the per-event causality check.
    assert report.checks >= 2 * result.engine_stats.allocations
    # Bookkeeping surfaces through the result (epochs with no active
    # flows return before the engine is consulted, hence <=).
    assert 0 < result.engine_stats.allocations <= result.reallocations
    assert result.engine_stats.full_rebuilds == FULL_REBUILDS.get(scheduler_name, 1)


def test_audit_does_not_change_the_run():
    """The audit only reads the engine: audited and plain runs agree."""
    for scheduler_name in ("pfs", "gurita"):  # max-min and classed
        plain = _run(scheduler_name)
        audited = _run(scheduler_name, audit=True)
        assert audited.job_completion_times() == plain.job_completion_times()
        assert audited.events_processed == plain.events_processed
        assert audited.engine_stats == plain.engine_stats

