"""Workload generation: stitch trace coflows onto job DAG structures.

The Facebook trace records single coflows with no job structure (paper §V:
"the data trace does not specify the relationship between coflows"), so —
exactly as the paper does — jobs are assembled by instantiating a DAG
template (TPC-DS query-42, FB-Tao, or the production shape mix) with
coflows replicated from the trace.
"""

from __future__ import annotations

import random
from typing import TYPE_CHECKING, List, Optional, Sequence, Tuple

from repro.errors import WorkloadError
from repro.floatsum import ordered_sum
from repro.jobs.builder import FlowSpec, IdAllocator, JobBuilder
from repro.jobs.job import Job
from repro.workloads.bursty import bursty_arrivals, poisson_arrivals, uniform_arrivals
from repro.workloads.fbtao import tao_shape, tao_volumes
from repro.workloads.fbtrace import TraceCoflow, synthesize_trace
from repro.workloads.shapes import DagShape, sample_production_shape, single
from repro.workloads.tpcds import query42_shape, query42_volumes

if TYPE_CHECKING:  # annotation-only: the workloads layer stays simulator-free
    from repro.simulator.units import Bytes, BytesPerSec, Seconds

#: Supported DAG structures.
STRUCTURES = ("fb-tao", "tpcds", "production-mix", "single")


def remap_specs(
    specs: Sequence[FlowSpec],
    num_hosts: int,
    rng: random.Random,
) -> List[FlowSpec]:
    """Re-place flow endpoints uniformly onto ``num_hosts`` hosts.

    The trace machine space (3000 hosts) rarely matches the simulated
    topology, so each distinct trace machine is mapped to a random
    simulated host (consistently within the coflow); src==dst collisions
    shift the destination to the next host.
    """
    if num_hosts < 2:
        raise WorkloadError("need at least two hosts")
    mapping = {}
    out: List[FlowSpec] = []
    for src, dst, size in specs:
        for machine in (src, dst):
            if machine not in mapping:
                mapping[machine] = rng.randrange(num_hosts)
        new_src, new_dst = mapping[src], mapping[dst]
        if new_src == new_dst:
            new_dst = (new_dst + 1) % num_hosts
        out.append((new_src, new_dst, size))
    return out


def replicate_coflow(
    base: TraceCoflow,
    total_bytes: Bytes,
    num_hosts: int,
    rng: random.Random,
) -> List[FlowSpec]:
    """Replicate a trace coflow scaled to ``total_bytes``, re-placed.

    When the target volume is much smaller than the base coflow (light DAG
    stages of a heavy job), the width is thinned along with the volume —
    real jobs run later stages with fewer tasks, and keeping hundreds of
    near-empty flows would distort both realism and simulation cost.
    """
    base_total = base.total_bytes
    if base_total <= 0:
        raise WorkloadError(f"trace coflow {base.coflow_id} has no bytes")
    specs = base.flow_specs()
    fraction = min(1.0, total_bytes / base_total)
    keep = max(1, round(len(specs) * fraction**0.5))
    if keep < len(specs):
        specs = rng.sample(specs, keep)
    current_total = ordered_sum(size for _src, _dst, size in specs)
    scale = total_bytes / current_total
    specs = [(src, dst, size * scale) for src, dst, size in specs]
    return remap_specs(specs, num_hosts, rng)


def _structure_for_job(
    structure: str, rng: random.Random
) -> Tuple[DagShape, Optional[List[float]]]:
    """Shape plus optional per-node volume weights for one job."""
    if structure == "fb-tao":
        shape = tao_shape()
        return shape, tao_volumes(1.0)
    if structure == "tpcds":
        return query42_shape(), query42_volumes(1.0)
    if structure == "production-mix":
        return sample_production_shape(rng), None
    if structure == "single":
        return single(), None
    raise WorkloadError(f"unknown structure {structure!r}; pick from {STRUCTURES}")


def jobs_from_trace(
    trace: Sequence[TraceCoflow],
    num_jobs: int,
    num_hosts: int,
    structure: str = "fb-tao",
    arrivals: Optional[Sequence[Seconds]] = None,
    seed: int = 0,
    ids: Optional[IdAllocator] = None,
) -> List[Job]:
    """Assemble ``num_jobs`` DAG-structured jobs from trace coflows.

    Each job draws a base coflow from the trace round-robin; its total
    bytes become the job's total, split over the DAG nodes (by the
    structure's volume profile, or by independently replicated trace
    coflows for ``production-mix``/``single``).  ``arrivals`` overrides
    the trace arrival times.
    """
    if not trace:
        raise WorkloadError("empty trace")
    if num_jobs < 1:
        raise WorkloadError("need at least one job")
    if arrivals is not None and len(arrivals) < num_jobs:
        raise WorkloadError("fewer arrival times than jobs")
    rng = random.Random(seed)
    ids = ids if ids is not None else IdAllocator()
    jobs: List[Job] = []
    for index in range(num_jobs):
        base = trace[index % len(trace)]
        arrival = (
            arrivals[index] if arrivals is not None else base.arrival_seconds
        )
        shape, weights = _structure_for_job(structure, rng)
        builder = JobBuilder(arrival_time=arrival, ids=ids)
        node_to_coflow = {}
        deps_of = {node: [] for node in range(shape.num_nodes)}
        for u, v in shape.edges:
            deps_of[v].append(u)
        # Build in an order where dependencies come first.
        remaining = set(range(shape.num_nodes))
        while remaining:
            progress = False
            for node in sorted(remaining):
                if any(dep in remaining for dep in deps_of[node]):
                    continue
                if weights is not None:
                    node_total = base.total_bytes * weights[node] / ordered_sum(weights)
                    sample = base
                else:
                    sample = trace[rng.randrange(len(trace))]
                    node_total = sample.total_bytes
                specs = replicate_coflow(sample, node_total, num_hosts, rng)
                node_to_coflow[node] = builder.add_coflow(
                    specs,
                    depends_on=[node_to_coflow[d] for d in deps_of[node]],
                )
                remaining.discard(node)
                progress = True
            if not progress:
                raise WorkloadError(f"cyclic shape {shape.name}")
        jobs.append(builder.build())
    return jobs


def synthesize_workload(
    num_jobs: int,
    num_hosts: int,
    structure: str = "fb-tao",
    seed: int = 0,
    arrival_mode: str = "uniform",
    duration: Optional[Seconds] = None,
    offered_load: float = 1.5,
    link_capacity: BytesPerSec = 10e9 / 8.0,
    burst_size: int = 10,
    burst_gap: Seconds = 1.0,
    size_scale: float = 1.0,
    max_fanin: int = 16,
    ids: Optional[IdAllocator] = None,
) -> List[Job]:
    """One-call workload synthesis: trace + structure + arrivals -> jobs.

    Parameters
    ----------
    arrival_mode:
        ``"uniform"`` spreads arrivals over ``duration``; ``"poisson"``
        draws a Poisson process with the same mean span; ``"bursty"``
        packs jobs into bursts of ``burst_size`` arrivals 2 µs apart
        separated by ~``burst_gap`` seconds (the paper's bursty scenario);
        ``"simultaneous"`` releases everything at t=0.
    duration:
        Arrival span in seconds.  When omitted it is derived from
        ``offered_load``: the span is set so the workload's total bytes
        offer ``offered_load`` times the hosts' aggregate NIC capacity —
        sustained contention is what differentiates schedulers, so the
        calibrated default keeps the network loaded like the paper's
        trace replay does.
    offered_load:
        Target ratio of offered bytes to aggregate capacity (> 1 means
        transient overload).  Ignored when ``duration`` is given.
    size_scale:
        Scales all byte counts (1.0 = trace-calibrated sizes).
    max_fanin:
        Caps mapper/reducer counts per coflow, bounding flows per coflow.
    """
    trace = synthesize_trace(
        num_coflows=num_jobs,
        num_machines=max(num_hosts, 2),
        duration=1.0,  # arrival times are replaced below
        seed=seed,
        size_scale=size_scale,
        max_fanin=max_fanin,
    )
    if duration is None:
        if offered_load <= 0:
            raise WorkloadError("offered_load must be positive")
        total_bytes = ordered_sum(record.total_bytes for record in trace)
        # Every byte crosses one uplink and one downlink, hence the 2x.
        aggregate = num_hosts * link_capacity
        duration = max(2.0 * total_bytes / (aggregate * offered_load), 1e-3)
    if arrival_mode == "uniform":
        arrivals: Optional[List[float]] = uniform_arrivals(num_jobs, duration, seed)
    elif arrival_mode == "poisson":
        arrivals = poisson_arrivals(num_jobs, rate=num_jobs / duration, seed=seed)
    elif arrival_mode == "bursty":
        arrivals = bursty_arrivals(
            num_jobs, burst_size=burst_size, gap=burst_gap, seed=seed
        )
    elif arrival_mode == "simultaneous":
        arrivals = [0.0] * num_jobs
    else:
        raise WorkloadError(f"unknown arrival_mode {arrival_mode!r}")
    return jobs_from_trace(
        trace,
        num_jobs=num_jobs,
        num_hosts=num_hosts,
        structure=structure,
        arrivals=arrivals,
        seed=seed + 1,
        ids=ids,
    )
