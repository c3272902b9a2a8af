"""Self-test of the benchmark suite on a k=4 fabric with 5 jobs.

Run with ``python -m pytest benchmarks/suite -q``.  Checks that a traced
run leaves the program exactly as it found it, that the traced work
counters repeat exactly, and that the metric names and counts in
``BENCHMARK.json`` stay within the benchmark contract.
"""

from __future__ import annotations

import json
import re
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
if str(ROOT / "src") not in sys.path:
    sys.path.insert(0, str(ROOT / "src"))

import workloads  # noqa: E402
from repro.experiments import common, parallel  # noqa: E402
from repro.experiments.common import ScenarioConfig  # noqa: E402
from repro.simulator import runtime  # noqa: E402
from repro.simulator.bandwidth import engine, spq, wrr  # noqa: E402
from repro.simulator.events import EventQueueBase  # noqa: E402
from repro.simulator.routing.ecmp import EcmpRouter  # noqa: E402
from run import EXACT_UNITS  # noqa: E402
from tracer import Tracer  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
SMALL = ScenarioConfig(
    name="self-test", structure="fb-tao", num_jobs=5, fattree_k=4,
    seed=workloads.PINNED_SEED,
)
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")

#: Every attribute a traced run replaces.
WRAPPED = [
    (engine.AllocationState, "allocate"),
    (EventQueueBase, "push"),
    (EventQueueBase, "pop"),
    (EcmpRouter, "route_flow"),
    (engine, "water_fill_membership"),
    (spq, "water_fill_membership"),
    (wrr, "water_fill_membership"),
    (runtime.CoflowSimulation, "__init__"),
    (runtime.CoflowSimulation, "run"),
    (common, "build_topology"),
    (common, "build_jobs"),
    (common, "make_scheduler"),
    (parallel.ResultCache, "load"),
    (parallel.ResultCache, "store"),
]


def traced_run(seed: int = 7):
    with Tracer() as tracer:
        live = [getattr(owner, attr) for owner, attr in WRAPPED]
        sim, _ = workloads.build_sim(SMALL, seed)
        result = sim.run()
    return tracer, result, live


def exact_layers(tracer, result):
    layers = workloads.layer_metrics(tracer, [result])
    return {
        m["name"]: layers[m["name"]]
        for m in SPEC["per_layer"]
        if m["unit"] in EXACT_UNITS and m["name"] in layers
    }


def test_traced_run_restores_every_wrapped_attribute():
    originals = [getattr(owner, attr) for owner, attr in WRAPPED]
    tracer, _, live = traced_run()
    assert tracer.calls["engine.allocate"] > 0
    for (owner, attr), original, during in zip(WRAPPED, originals, live):
        assert during is not original, f"{attr} was not wrapped"
        assert getattr(owner, attr) is original, f"{attr} was not restored"


def test_tracer_restores_after_a_failed_run():
    originals = [getattr(owner, attr) for owner, attr in WRAPPED]
    with pytest.raises(RuntimeError):
        with Tracer():
            raise RuntimeError("run failed")
    assert [getattr(owner, attr) for owner, attr in WRAPPED] == originals


def test_counters_repeat_exactly():
    first = exact_layers(*traced_run()[:2])
    second = exact_layers(*traced_run()[:2])
    assert first["runtime.events"] > 0 and first["fill.rate_levels"] > 0
    assert first == second


def test_traced_run_matches_untraced():
    sim, _ = workloads.build_sim(SMALL, 7)
    untraced = sim.run()
    _, traced, _ = traced_run()
    assert workloads.jct_fingerprint(traced) == workloads.jct_fingerprint(untraced)


def test_conservation_fills_are_one_per_wrr_allocation():
    tracer, result, _ = traced_run()
    layers = workloads.layer_metrics(tracer, [result])
    assert layers["fill.conservation_calls"] == (
        layers["engine.allocate_calls"] - layers["engine.cache_hits"]
    )
    assert layers["fill.calls"] == tracer.calls["fill.class"] + tracer.calls[
        "fill.conservation"
    ]


def test_relabelling_keeps_the_offered_work():
    def flows(seed):
        topology = common.build_topology(SMALL)
        jobs = common.build_jobs(SMALL, topology.num_hosts)
        workloads.relabel_hosts(jobs, topology.num_hosts, seed)
        return [
            (f.flow_id, f.src, f.dst, f.size_bytes, job.arrival_time)
            for job in jobs for c in job.coflows for f in c.flows
        ]

    pinned, moved = flows(workloads.PINNED_SEED), flows(7)
    assert pinned == flows(workloads.PINNED_SEED)
    assert [(i, s, a) for i, _, _, s, a in pinned] == [
        (i, s, a) for i, _, _, s, a in moved
    ]
    assert [(src, dst) for _, src, dst, _, _ in pinned] != [
        (src, dst) for _, src, dst, _, _ in moved
    ]


def test_layer_metrics_cover_the_spec():
    tracer, result, _ = traced_run()
    measured = set(workloads.layer_metrics(tracer, [result]))
    measured |= set(workloads.GRID_LAYER_METRICS) | {"trace.overhead"}
    assert measured == {m["name"] for m in SPEC["per_layer"]}


def test_metric_names_and_caps():
    e2e, layers, loads = SPEC["end_to_end"], SPEC["per_layer"], SPEC["workloads"]
    assert 1 <= len(e2e) <= 16
    assert 1 <= len(layers) <= 128
    assert 2 <= len(loads) <= 8
    names = [m["name"] for m in e2e + layers + loads]
    assert len(names) == len(set(names))
    for name in names:
        assert NAME.fullmatch(name), name
    assert [w["name"] for w in loads] == list(workloads.WORKLOADS)
    assert any(
        m["name"] == "setup_s" and m["unit"] == "s" and m["better"] == "lower"
        for m in e2e
    )
    assert all(0 < m["bound"] <= 0.25 for m in e2e)
