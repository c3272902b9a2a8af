"""Facebook coflow trace: parser, writer, and calibrated synthesizer.

The paper replays the public coflow benchmark trace collected from 3000
machines / 150 racks of a Facebook datacenter (distributed with Varys as
``FB2010-1Hr-150-0.txt``).  That file is not redistributable here, so this
module provides both:

* :func:`parse_trace` / :func:`write_trace` for the exact on-disk format,
  so the real trace can be dropped in, and
* :func:`synthesize_trace`, a generator calibrated to the trace's published
  marginals — heavy-tailed coflow sizes spanning the paper's seven job
  categories (most coflows tiny, a fat tail of multi-TB shuffles),
  heavy-tailed mapper/reducer fan-in, Poisson arrivals over an hour.

Trace format (one coflow per line after the header)::

    <num_machines> <num_coflows>
    <id> <arrival_ms> <m> <mapper_1> ... <mapper_m> <r> <reducer_1>:<MB_1> ...

Machine indices are 1-based rack locations in the original file; here they
index hosts.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from pathlib import Path
from typing import List, Sequence, Tuple, Union

from repro.errors import TraceFormatError
from repro.floatsum import ordered_sum
from repro.workloads.categories import MB

#: Machine count of the original Facebook trace.
FB_TRACE_MACHINES = 3000

#: Duration of the original trace (one hour), in seconds.
FB_TRACE_DURATION = 3600.0


@dataclass(frozen=True)
class TraceCoflow:
    """One coflow record: where its mappers/reducers sit and reducer bytes."""

    coflow_id: int
    arrival_seconds: float
    mappers: Tuple[int, ...]
    #: (machine, bytes received by that reducer)
    reducers: Tuple[Tuple[int, float], ...]

    @property
    def total_bytes(self) -> float:
        return ordered_sum(size for _machine, size in self.reducers)

    @property
    def num_flows(self) -> int:
        """Width when every mapper feeds every reducer."""
        return len(self.mappers) * len(self.reducers)

    def flow_specs(self) -> List[Tuple[int, int, float]]:
        """Expand into (src, dst, size) specs: mapper x reducer bipartite.

        Each reducer's bytes are split evenly across the mappers feeding
        it, the standard interpretation of the trace format.
        """
        specs: List[Tuple[int, int, float]] = []
        num_mappers = len(self.mappers)
        for reducer, size in self.reducers:
            per_mapper = size / num_mappers
            for mapper in self.mappers:
                if mapper != reducer:
                    specs.append((mapper, reducer, per_mapper))
                # A mapper co-located with its reducer moves no network
                # bytes, so that share simply never hits the fabric.
        if not specs:
            # Degenerate but possible: every mapper co-located with the
            # reducer.  Emit one loop-free flow to a neighbour machine.
            reducer, size = self.reducers[0]
            src = self.mappers[0]
            dst = reducer if reducer != src else (reducer + 1)
            specs.append((src, dst, size))
        return specs


# ----------------------------------------------------------------------
# On-disk format
# ----------------------------------------------------------------------
def parse_trace(path: Union[str, Path]) -> Tuple[int, List[TraceCoflow]]:
    """Parse a Varys-format coflow trace file."""
    lines = Path(path).read_text().strip().splitlines()
    if not lines:
        raise TraceFormatError(f"{path}: empty trace file")
    header = lines[0].split()
    if len(header) != 2:
        raise TraceFormatError(f"{path}: header must be '<machines> <coflows>'")
    num_machines, num_coflows = int(header[0]), int(header[1])
    if num_coflows != len(lines) - 1:
        raise TraceFormatError(
            f"{path}: header promises {num_coflows} coflows, "
            f"found {len(lines) - 1} lines"
        )
    coflows: List[TraceCoflow] = []
    for line_no, line in enumerate(lines[1:], start=2):
        coflows.append(_parse_line(line, line_no, num_machines))
    return num_machines, coflows


def _parse_line(line: str, line_no: int, num_machines: int) -> TraceCoflow:
    tokens = line.split()
    try:
        coflow_id = int(tokens[0])
        arrival_ms = float(tokens[1])
        num_mappers = int(tokens[2])
        mappers = tuple(int(t) for t in tokens[3 : 3 + num_mappers])
        cursor = 3 + num_mappers
        num_reducers = int(tokens[cursor])
        cursor += 1
        reducers = []
        for token in tokens[cursor : cursor + num_reducers]:
            machine_text, mb_text = token.split(":")
            reducers.append((int(machine_text), float(mb_text) * MB))
        if len(mappers) != num_mappers or len(reducers) != num_reducers:
            raise ValueError("token count mismatch")
    except (ValueError, IndexError) as exc:
        raise TraceFormatError(f"line {line_no}: malformed coflow record") from exc
    for machine in list(mappers) + [m for m, _ in reducers]:
        if not 0 <= machine < num_machines:
            raise TraceFormatError(
                f"line {line_no}: machine {machine} outside 0..{num_machines - 1}"
            )
    return TraceCoflow(
        coflow_id=coflow_id,
        arrival_seconds=arrival_ms / 1000.0,
        mappers=mappers,
        reducers=tuple(reducers),
    )


def write_trace(
    path: Union[str, Path],
    coflows: Sequence[TraceCoflow],
    num_machines: int,
) -> None:
    """Write coflows in the Varys trace format."""
    lines = [f"{num_machines} {len(coflows)}"]
    for coflow in coflows:
        parts = [
            str(coflow.coflow_id),
            str(int(round(coflow.arrival_seconds * 1000.0))),
            str(len(coflow.mappers)),
            *(str(m) for m in coflow.mappers),
            str(len(coflow.reducers)),
            *(f"{machine}:{size / MB:.9g}" for machine, size in coflow.reducers),
        ]
        lines.append(" ".join(parts))
    Path(path).write_text("\n".join(lines) + "\n")


# ----------------------------------------------------------------------
# Calibrated synthesis
# ----------------------------------------------------------------------
def _sample_total_bytes(rng: random.Random, scale: float) -> float:
    """Heavy-tailed coflow size spanning the paper's categories I..VII.

    A three-component lognormal mixture: most coflows are MB-scale, a
    sizeable middle class is 100MB–10GB, and a thin tail reaches multi-TB —
    matching the published shape of the Facebook trace where the largest
    few percent of coflows carry most of the bytes.
    """
    roll = rng.random()
    if roll < 0.60:
        exponent = rng.gauss(0.9, 0.7)  # median ~8 MB
    elif roll < 0.92:
        exponent = rng.gauss(2.8, 0.9)  # median ~630 MB
    else:
        exponent = rng.gauss(4.6, 0.8)  # median ~40 GB
    exponent = min(max(exponent, 0.2), 6.2)  # clamp to ~1.6 MB .. ~1.6 TB
    return (10.0**exponent) * MB * scale


def _sample_fanin(rng: random.Random, cap: int, total_bytes: float) -> int:
    """Mapper/reducer count, correlated with coflow size.

    In the Facebook trace, the coflows that carry most of the bytes are
    also the *wide* ones — elephants shuffle across most ports, which is
    what makes them block mice under per-flow fairness.  Small coflows are
    narrow (1-3 endpoints); width grows roughly with log(size).
    """
    if total_bytes < 100 * MB:
        value = 1 + rng.randrange(3)
    elif total_bytes < 10_000 * MB:
        value = int(rng.lognormvariate(1.6, 0.6))
    else:
        value = int(rng.lognormvariate(2.6, 0.5))
    return min(max(value, 1), cap)


def synthesize_trace(
    num_coflows: int,
    num_machines: int = FB_TRACE_MACHINES,
    duration: float = FB_TRACE_DURATION,
    seed: int = 0,
    size_scale: float = 1.0,
    max_fanin: int = 25,
) -> List[TraceCoflow]:
    """Generate a synthetic Facebook-like coflow trace.

    Parameters
    ----------
    num_coflows:
        Records to generate.
    num_machines:
        Machine-id space (mappers/reducers are placed uniformly).
    duration:
        Arrivals are uniform over [0, duration) — the Poisson-process
        order statistics — then sorted.
    size_scale:
        Multiplier on all byte counts; < 1 speeds up simulations while
        preserving relative job sizes.
    max_fanin:
        Cap on mapper and reducer counts (bounds flows per coflow at
        ``max_fanin**2``).
    """
    if num_coflows < 1:
        raise TraceFormatError("need at least one coflow")
    if num_machines < 2:
        raise TraceFormatError("need at least two machines")
    rng = random.Random(seed)
    arrivals = sorted(rng.uniform(0.0, duration) for _ in range(num_coflows))
    coflows: List[TraceCoflow] = []
    for coflow_id, arrival in enumerate(arrivals):
        # Width is correlated with the *unscaled* size so that size_scale
        # rescales volumes without perturbing the sampled structure.
        raw_total = _sample_total_bytes(rng, 1.0)
        total = raw_total * size_scale
        num_mappers = _sample_fanin(rng, max_fanin, raw_total)
        num_reducers = _sample_fanin(rng, max_fanin, raw_total)
        machines = rng.sample(
            range(num_machines), min(num_mappers + num_reducers, num_machines)
        )
        mappers = tuple(machines[:num_mappers])
        reducer_hosts = machines[num_mappers:]
        if not reducer_hosts:  # all slots went to mappers on tiny clusters
            mappers = tuple(machines[:-1])
            reducer_hosts = machines[-1:]
        weights = [rng.uniform(0.5, 1.5) for _ in reducer_hosts]
        weight_sum = ordered_sum(weights)
        reducers = tuple(
            (host, total * w / weight_sum)
            for host, w in zip(reducer_hosts, weights)
        )
        coflows.append(
            TraceCoflow(
                coflow_id=coflow_id,
                arrival_seconds=arrival,
                mappers=mappers,
                reducers=reducers,
            )
        )
    return coflows
