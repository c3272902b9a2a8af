"""The suite's four workloads and how one run of each is measured.

Every workload is a batch run: a fixed job list replayed to completion
through the public entry points (``build_topology``, ``build_jobs``,
``make_scheduler``, ``CoflowSimulation(...).run()`` and ``run_grid``).

Seeds.  A workload's offered work (trace draw, DAGs, sizes, arrival
times) is pinned by its scenario seed, because on this simulator a new
trace draw changes the run time by 2-3x and would drown any code change.
The benchmark seed varies what a held-out check needs without changing
the offered bytes:

* sim workloads relabel hosts with a permutation drawn from the seed, so
  flows land on other links (routes, contention, fill rounds all move);
  the scenario seed itself keeps the generated placement;
* the grid derives its link-flap fault timeline from the seed.
"""

from __future__ import annotations

import dataclasses
import gc
import hashlib
import json
import random
import resource
import shutil
import statistics
import time
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.errors import ReproError
from repro.experiments import common
from repro.experiments.common import ScenarioConfig
from repro.experiments.parallel import ResultCache, WorkUnit, run_grid
from repro.jobs.job import Job
from repro.simulator.runtime import CoflowSimulation, SimulationResult
from repro.theory.lowerbound import job_lower_bound
from tracer import Tracer, percentile_us

#: The sim workloads' scheduler: Gurita with WRR-emulated SPQ.
SIM_SCHEDULER = "gurita"

#: Timed repeats every run makes, even past ``--seconds``.
MIN_REPEATS = 3

#: Set-up samples per run (extra set-ups are built and dropped).
MIN_SETUP_SAMPLES = 9

#: Grid shape: {fb-tao 20 jobs on k=4, the same under link flaps} x four
#: light seeds, each unit running three allocation paths (pfs: MAXMIN,
#: sebf: SPQ, gurita: WRR).  Seeds whose gurita run has 10k+ events would
#: let one unit dominate the pass and hide the pipeline cost it measures.
GRID_BASE = ScenarioConfig(name="grid-k4", structure="fb-tao", num_jobs=20, fattree_k=4)
GRID_SEEDS = (2, 3, 4, 8)
GRID_SCHEDULERS = ("pfs", "sebf", "gurita")
GRID_WORKERS = 2
#: All-hit passes after each cold pass.
WARM_PASSES = 10
GRID_SETUP_LOOPS = 200

#: Scenario seed of every workload; ``--seed`` equal to it replays the
#: generated placement unchanged.
PINNED_SEED = 42

SIM_CONFIGS: Dict[str, ScenarioConfig] = {
    # BENCH_9's fig5-fbt scenario, byte for byte (the historical name
    # included), so its JCT fingerprint must reproduce.
    "fbtao-k8": ScenarioConfig(
        name="FB-t", structure="fb-tao", arrival_mode="uniform",
        num_jobs=60, fattree_k=8, seed=PINNED_SEED,
    ),
    "fbtao-k16": ScenarioConfig(
        name="fbtao-k16", structure="fb-tao", num_jobs=20, fattree_k=16,
        seed=PINNED_SEED,
    ),
    "tpcds-k4": ScenarioConfig(
        name="tpcds-k4", structure="tpcds", num_jobs=150, fattree_k=4,
        seed=PINNED_SEED,
    ),
}

WORKLOADS: Tuple[str, ...] = (*SIM_CONFIGS, "grid-k4")

clock = time.perf_counter


def fingerprint(payload: object) -> str:
    """blake2b-16 over canonical JSON (the ``perf_trajectory`` scheme)."""
    encoded = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.blake2b(encoded.encode("utf-8"), digest_size=16).hexdigest()


def jct_fingerprint(result: SimulationResult) -> str:
    return fingerprint(sorted(result.job_completion_times().items()))


@dataclasses.dataclass
class Outcome:
    """Everything one run of one workload measured."""

    workload: str
    seed: int
    #: end-to-end metric -> value
    e2e: Dict[str, float] = dataclasses.field(default_factory=dict)
    #: end-to-end metric -> number of samples behind it
    samples: Dict[str, int] = dataclasses.field(default_factory=dict)
    #: per-layer metric -> value (traced runs only)
    layers: Dict[str, float] = dataclasses.field(default_factory=dict)
    #: JCT fingerprint (grid: one per unit, in unit order)
    fingerprints: List[str] = dataclasses.field(default_factory=list)
    #: raw timed samples, for offline estimator checks
    raw: Dict[str, List[float]] = dataclasses.field(default_factory=dict)
    #: traced runs: per-span calls, total and self seconds
    spans: Dict[str, Dict[str, float]] = dataclasses.field(default_factory=dict)
    attempted: int = 0
    failed: int = 0
    errors: List[str] = dataclasses.field(default_factory=list)

    def fail(self, message: str) -> None:
        self.failed += 1
        self.errors.append(message)


def peak_rss_mb() -> float:
    """This process's peak resident set (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


# ----------------------------------------------------------------------
# Correctness checks shared by both kinds of workload
# ----------------------------------------------------------------------
def check_result(result: SimulationResult, link_rate: float) -> Optional[str]:
    """Every job finished, and none beat its combinatorial lower bound."""
    if not result.all_done:
        return "a job was left incomplete"
    jcts = result.job_completion_times()
    for job in result.jobs:
        bound = job_lower_bound(job, link_rate)
        if jcts[job.job_id] < bound * (1.0 - 1e-9):
            return f"job {job.job_id} JCT {jcts[job.job_id]!r} < lower bound {bound!r}"
    return None


def record_end_to_end(
    out: Outcome, run_times: List[float], setup_times: List[float], events: int
) -> float:
    """Fill in the end-to-end metrics; returns ``run_s``.

    ``run_s`` is the fastest repeat: co-tenants on a shared box only ever
    slow a repeat of the same deterministic work down (README, "Noise").
    """
    run_s = min(run_times)
    out.e2e = {
        "run_s": run_s,
        "events_per_s": events / run_s,
        "setup_s": statistics.median(setup_times),
        "peak_rss_mb": peak_rss_mb(),
    }
    out.samples = {
        "run_s": len(run_times),
        "events_per_s": len(run_times),
        "setup_s": len(setup_times),
        "peak_rss_mb": 1,
    }
    out.raw = {"run_s": run_times, "setup_s": setup_times}
    return run_s


# ----------------------------------------------------------------------
# Sim workloads
# ----------------------------------------------------------------------
def relabel_hosts(jobs: Sequence[Job], num_hosts: int, seed: int) -> None:
    """Move every flow endpoint through a host permutation drawn from
    ``seed``; the pinned seed keeps the generated placement."""
    if seed == PINNED_SEED:
        return
    perm = list(range(num_hosts))
    random.Random(seed).shuffle(perm)
    for job in jobs:
        for coflow in job.coflows:
            for flow in coflow.flows:
                flow.src = perm[flow.src]
                flow.dst = perm[flow.dst]


def build_sim(config: ScenarioConfig, seed: int) -> Tuple[CoflowSimulation, float]:
    """One ready simulation and its set-up seconds.

    The host relabelling is the benchmark making its input, so it is
    outside the timed set-up.
    """
    start = clock()
    topology = common.build_topology(config)
    jobs = common.build_jobs(config, topology.num_hosts)
    built = clock() - start
    relabel_hosts(jobs, topology.num_hosts, seed)
    start = clock()
    sim = CoflowSimulation(topology, common.make_scheduler(SIM_SCHEDULER), jobs)
    return sim, built + clock() - start


def measure_sim(
    name: str, seed: int, seconds: float, trace: bool, pins: Dict[str, Any]
) -> Outcome:
    config = SIM_CONFIGS[name]
    out = Outcome(workload=name, seed=seed)
    pinned = pins.get("fingerprint") if seed == pins.get("seed") else None
    run_times: List[float] = []
    setup_times: List[float] = []
    reference: Optional[SimulationResult] = None
    deadline = clock() + seconds
    last = 0.0
    while out.attempted < MIN_REPEATS or clock() + last <= deadline:
        sim, setup = build_sim(config, seed)
        setup_times.append(setup)
        gc.collect()
        out.attempted += 1
        start = clock()
        try:
            result = sim.run()
        except ReproError as exc:
            last = clock() - start
            out.fail(f"run raised {type(exc).__name__}: {exc}")
            continue
        last = clock() - start
        run_times.append(last)
        printed = jct_fingerprint(result)
        if reference is None:
            reference = result
            out.fingerprints = [printed]
            problem = check_result(result, sim.topology.host_link_capacity)
            if problem is not None:
                out.fail(problem)
            if pinned is not None and printed != pinned:
                out.fail(f"JCT fingerprint {printed} != pinned {pinned}")
        elif printed != out.fingerprints[0]:
            out.fail("JCT fingerprint changed between repeats")
    if reference is None:
        raise RuntimeError(f"{name}: every timed run failed: {out.errors}")
    while len(setup_times) < MIN_SETUP_SAMPLES:
        setup_times.append(build_sim(config, seed)[1])

    run_s = record_end_to_end(out, run_times, setup_times, reference.events_processed)
    if trace:
        with Tracer() as tracer:
            sim, _ = build_sim(config, seed)
            start = clock()
            result = sim.run()
            traced_s = clock() - start
        if jct_fingerprint(result) != out.fingerprints[0]:
            out.fail("traced run's JCT fingerprint differs from the untraced one")
        out.layers = layer_metrics(tracer, [result])
        out.layers.update(dict.fromkeys(GRID_LAYER_METRICS, 0.0))
        out.layers["trace.overhead"] = traced_s / run_s
        out.samples.update(tracer.percentile_samples())
        out.spans = tracer.spans()
    return out


# ----------------------------------------------------------------------
# Grid workload
# ----------------------------------------------------------------------
GRID_LAYER_METRICS = (
    "grid.unit_s",
    "grid.worker_utilization",
    "grid.fanout_s",
    "grid.cache_load_s",
    "grid.cache_store_s",
    "grid.cache_bytes",
    "grid.warm_s",
)


def grid_units(seed: int) -> List[WorkUnit]:
    flapping = GRID_BASE.with_overrides(fault_profile="link-flap", fault_seed=seed)
    return [
        WorkUnit(config=config, seed=unit_seed, schedulers=GRID_SCHEDULERS)
        for config in (GRID_BASE, flapping)
        for unit_seed in GRID_SEEDS
    ]


def unit_fingerprints(report: Any) -> List[Optional[str]]:
    """One fingerprint per unit over every scheduler's sorted JCTs."""
    return [
        None if scenario is None else fingerprint(
            {name: sorted(sim.job_completion_times().items())
             for name, sim in sorted(scenario.results.items())}
        )
        for scenario in report.results
    ]


def grid_setup(seed: int, cache_dir: Path) -> Tuple[List[WorkUnit], ResultCache, float]:
    """The grid's set-up, its work units and result cache, and its seconds.

    One build takes tens of microseconds, so the time is the mean of
    ``GRID_SETUP_LOOPS`` builds.
    """
    start = clock()
    for _ in range(GRID_SETUP_LOOPS):
        units = grid_units(seed)
        cache = ResultCache(cache_dir)
    return units, cache, (clock() - start) / GRID_SETUP_LOOPS


def grid_pass(
    units: List[WorkUnit], cache: ResultCache, workers: int
) -> Tuple[Any, float]:
    start = clock()
    report = run_grid(units, parallel=workers, cache=cache)
    return report, clock() - start


def grid_sims(report: Any) -> List[SimulationResult]:
    return [
        sim
        for scenario in report.results if scenario is not None
        for sim in scenario.results.values()
    ]


def check_grid_pass(out: Outcome, report: Any, expect_hits: int, label: str) -> None:
    """Count the pass's units and fail those that did not verify.

    The first pass is checked against the lower bounds and becomes the
    reference; every later pass must reproduce its unit fingerprints.
    """
    out.attempted += len(report.units)
    for failure in report.failures:
        out.fail(f"{label}: {failure.unit.describe()}: {failure.error}")
    if report.stats.cache_hits != expect_hits:
        out.fail(f"{label}: {report.stats.cache_hits} cache hits, expected {expect_hits}")
    prints = unit_fingerprints(report)
    if out.fingerprints:
        for unit, printed, expected in zip(report.units, prints, out.fingerprints):
            if printed is not None and printed != expected:
                out.fail(f"{label}: {unit.describe()}: fingerprint changed")
        return
    out.fingerprints = [p or "" for p in prints]
    for unit, scenario in zip(report.units, report.results):
        for sim in scenario.results.values() if scenario is not None else ():
            problem = check_result(sim, common.scenario_link_rate(scenario.config))
            if problem is not None:
                out.fail(f"{label}: {unit.describe()}: {problem}")
                break


def measure_grid(
    seed: int, seconds: float, trace: bool, pins: Dict[str, Any], scratch: Path
) -> Outcome:
    out = Outcome(workload="grid-k4", seed=seed)
    pinned = pins.get("unit_fingerprints") if seed == pins.get("seed") else None
    cold_times: List[float] = []
    warm_times: List[float] = []
    setup_times: List[float] = []
    stats: Any = None
    cache_bytes = 0
    events = 0
    deadline = clock() + seconds
    while len(cold_times) < MIN_REPEATS or clock() + cold_times[-1] <= deadline:
        cache_dir = scratch / f"cycle-{len(cold_times)}"
        units, cache, setup = grid_setup(seed, cache_dir)
        setup_times.append(setup)
        report, elapsed = grid_pass(units, cache, GRID_WORKERS)
        cold_times.append(elapsed)
        first = not out.fingerprints
        check_grid_pass(out, report, 0, "cold pass")
        if first:
            if pinned is not None and out.fingerprints != pinned:
                out.fail("unit fingerprints differ from the pinned ones")
            events = sum(sim.events_processed for sim in grid_sims(report))
        stats = report.stats
        cache_bytes = sum(p.stat().st_size for p in cache_dir.iterdir())
        for _ in range(WARM_PASSES):
            report, elapsed = grid_pass(units, cache, GRID_WORKERS)
            warm_times.append(elapsed)
            check_grid_pass(out, report, len(units), "warm pass")
        shutil.rmtree(cache_dir)
    while len(setup_times) < MIN_SETUP_SAMPLES:
        setup_times.append(grid_setup(seed, scratch / "setup")[2])

    record_end_to_end(out, cold_times, setup_times, events)
    out.samples["grid.warm_s"] = len(warm_times)
    out.raw["warm_s"] = warm_times
    if trace:
        # The traced pass runs serially so every span lands in this
        # process; an untraced serial pass is its overhead baseline.
        units, cache, _ = grid_setup(seed, scratch / "serial")
        serial, serial_s = grid_pass(units, cache, 1)
        check_grid_pass(out, serial, 0, "serial pass")
        units, cache, _ = grid_setup(seed, scratch / "traced")
        with Tracer() as tracer:
            report, traced_s = grid_pass(units, cache, 1)
            warm, _ = grid_pass(units, cache, 1)
        check_grid_pass(out, report, 0, "traced cold pass")
        check_grid_pass(out, warm, len(units), "traced warm pass")
        out.layers = layer_metrics(tracer, grid_sims(report))
        out.layers.update({
            "grid.unit_s": stats.unit_seconds,
            "grid.worker_utilization": stats.worker_utilization,
            "grid.fanout_s": stats.elapsed_seconds - stats.unit_seconds / stats.workers,
            "grid.cache_load_s": tracer.total["grid.cache_load"],
            "grid.cache_store_s": tracer.total["grid.cache_store"],
            "grid.cache_bytes": float(cache_bytes),
            "grid.warm_s": min(warm_times),
            "trace.overhead": traced_s / serial_s,
        })
        out.samples.update(tracer.percentile_samples())
        out.spans = tracer.spans()
    return out


# ----------------------------------------------------------------------
# Per-layer metrics from one traced pass
# ----------------------------------------------------------------------
def layer_metrics(tracer: Tracer, results: List[SimulationResult]) -> Dict[str, float]:
    calls, total, own = tracer.calls, tracer.total, tracer.self_time
    counts = tracer.counts
    events = sum(r.events_processed for r in results)
    reallocations = sum(r.reallocations for r in results)
    skipped = sum(r.epochs_skipped for r in results)
    batches = reallocations + skipped
    engine_stats = [r.engine_stats for r in results if r.engine_stats is not None]
    allocations = sum(s.allocations for s in engine_stats)
    hits = sum(s.cache_hits for s in engine_stats)
    fill_calls = calls["fill.class"] + calls["fill.conservation"]
    scanned = counts["fill.links_scanned"]

    def ratio(part: float, whole: float) -> float:
        return part / whole if whole else 0.0

    return {
        "topology.build_s": total["topology.build"],
        "workloads.build_s": total["workloads.build"],
        "runtime.init_s": total["runtime.init"],
        "events.push_calls": calls["events.push"],
        "events.pop_calls": calls["events.pop"],
        "events.self_s": own["events.push"] + own["events.pop"],
        "runtime.self_s": own["runtime.run"],
        "runtime.events": events,
        "runtime.batches": batches,
        "runtime.reallocations": reallocations,
        "runtime.epochs_skipped": skipped,
        "runtime.skip_ratio": ratio(skipped, batches),
        "policy.update_calls": calls["policy.on_update"],
        "policy.update_s": own["policy.on_update"],
        "policy.update_p99_us": percentile_us(tracer.samples["policy.on_update"], 99),
        "policy.allocation_calls": calls["policy.allocation"],
        "policy.allocation_s": own["policy.allocation"],
        "policy.hooks_calls": calls["policy.hooks"],
        "policy.hooks_s": own["policy.hooks"],
        "policy.delta_flows": counts["policy.delta_flows"],
        "routing.route_calls": calls["routing.route"],
        "routing.self_s": own["routing.route"],
        "engine.allocate_calls": allocations,
        "engine.cache_hits": hits,
        "engine.cache_hit_ratio": ratio(hits, allocations),
        "engine.full_rebuilds": sum(s.full_rebuilds for s in engine_stats),
        "engine.delta_updates": sum(s.delta_updates for s in engine_stats),
        "engine.self_s": own["engine.allocate"],
        "engine.allocate_p50_us": percentile_us(tracer.samples["engine.allocate"], 50),
        "engine.allocate_p99_us": percentile_us(tracer.samples["engine.allocate"], 99),
        "fill.calls": fill_calls,
        "fill.class_calls": calls["fill.class"],
        "fill.conservation_calls": calls["fill.conservation"],
        "fill.class_s": total["fill.class"],
        "fill.conservation_s": total["fill.conservation"],
        "fill.flows": counts["fill.flows"],
        "fill.rate_levels": counts["fill.rate_levels"],
        "fill.active_links": counts["fill.active_links"],
        "fill.links_scanned": scanned,
        "fill.active_link_rounds": counts["fill.active_link_rounds"],
        "fill.active_ratio": ratio(counts["fill.active_link_rounds"], scanned),
    }
