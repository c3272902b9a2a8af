"""Layer tracer: times the simulator's layers from outside the program.

A :class:`Tracer` replaces the public entry points of each layer with
timing wrappers for the duration of a traced run and puts the original
objects back afterwards.  Nothing under ``src/`` knows it is being
traced, so the untraced runs of the benchmark execute exactly the code
users run.

Spans nest: each wrapper keeps a stack frame that its children add their
durations to, so a layer's *self* time is its span minus the spans it
called.  Per-name calls, total and self time are aggregated in memory;
per-call durations are kept only for the spans whose percentiles are
reported (``engine.allocate`` and ``policy.on_update``).
"""

from __future__ import annotations

import math
import time
from collections import defaultdict
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.experiments import common, parallel
from repro.simulator import runtime
from repro.simulator.bandwidth import engine, spq, wrr
from repro.simulator.events import EventQueueBase
from repro.simulator.routing.ecmp import EcmpRouter

#: Spans whose per-call durations are kept for percentiles.
SAMPLED_SPANS = ("engine.allocate", "policy.on_update")

#: Lifecycle hooks of :class:`repro.schedulers.base.SchedulerPolicy`.
POLICY_HOOKS = (
    "on_job_arrival",
    "on_coflow_release",
    "on_flow_finish",
    "on_coflow_finish",
    "on_job_finish",
    "on_sync_degraded",
    "on_hosts_changed",
    "on_flow_restart",
)


class Tracer:
    """In-memory span and counter aggregation for one traced run."""

    def __init__(self) -> None:
        self.calls: Dict[str, int] = defaultdict(int)
        self.total: Dict[str, float] = defaultdict(float)
        self.self_time: Dict[str, float] = defaultdict(float)
        self.samples: Dict[str, List[float]] = {name: [] for name in SAMPLED_SPANS}
        #: exact work counters measured at the layer boundaries
        self.counts: Dict[str, int] = defaultdict(int)
        self._stack: List[float] = []
        self._patches: List[Tuple[Any, str, Any]] = []
        #: the ``all_flows`` membership of the engine currently allocating;
        #: a WRR fill over it is the work-conservation pass
        self._engine_flows: Optional[object] = None

    # ------------------------------------------------------------------
    # Spans
    # ------------------------------------------------------------------
    def span(self, name: str, fn: Callable[..., Any]) -> Callable[..., Any]:
        """``fn`` wrapped so each call is timed as span ``name``."""
        clock = time.perf_counter
        stack = self._stack
        calls, total, self_time = self.calls, self.total, self.self_time
        samples = self.samples.get(name)

        def traced(*args: Any, **kwargs: Any) -> Any:
            stack.append(0.0)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                children = stack.pop()
                if stack:
                    stack[-1] += elapsed
                calls[name] += 1
                total[name] += elapsed
                self_time[name] += elapsed - children
                if samples is not None:
                    samples.append(elapsed)

        return traced

    def _patch(self, owner: Any, attr: str, wrapper: Callable[..., Any]) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, wrapper)

    def _wrap(self, owner: Any, attr: str, name: str) -> None:
        self._patch(owner, attr, self.span(name, getattr(owner, attr)))

    # ------------------------------------------------------------------
    # Layer instrumentation
    # ------------------------------------------------------------------
    def install(self) -> "Tracer":
        """Wrap every traced entry point; :meth:`restore` undoes it."""
        self._wrap(common, "build_topology", "topology.build")
        self._wrap(common, "build_jobs", "workloads.build")
        original_make = common.make_scheduler
        self._patch(
            common,
            "make_scheduler",
            lambda name: self.instrument_policy(original_make(name)),
        )
        self._wrap(runtime.CoflowSimulation, "__init__", "runtime.init")
        self._wrap(runtime.CoflowSimulation, "run", "runtime.run")
        self._wrap(EventQueueBase, "push", "events.push")
        self._wrap(EventQueueBase, "pop", "events.pop")
        self._wrap(EcmpRouter, "route_flow", "routing.route")
        self._wrap(parallel.ResultCache, "load", "grid.cache_load")
        self._wrap(parallel.ResultCache, "store", "grid.cache_store")

        timed_allocate = self.span("engine.allocate", engine.AllocationState.allocate)

        def allocate(state: Any, *args: Any, **kwargs: Any) -> Any:
            self._engine_flows = state.all_flows
            return timed_allocate(state, *args, **kwargs)

        self._patch(engine.AllocationState, "allocate", allocate)
        for module in (engine, spq, wrr):
            self._patch(
                module,
                "water_fill_membership",
                self._fill(module.water_fill_membership, module is wrr),
            )
        return self

    def restore(self) -> None:
        """Put every wrapped attribute back, newest patch first."""
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def __enter__(self) -> "Tracer":
        return self.install()

    def __exit__(self, *exc: object) -> None:
        self.restore()

    def instrument_policy(self, policy: Any) -> Any:
        """Shadow one policy instance's calls with spans and counters.

        Instance attributes, so the policy class itself is never
        touched and the instance is dropped with its simulation.
        """
        policy.allocation = self.span("policy.allocation", policy.allocation)
        policy.on_update = self.span("policy.on_update", policy.on_update)
        for hook in POLICY_HOOKS:
            setattr(policy, hook, self.span("policy.hooks", getattr(policy, hook)))
        consume = policy.consume_priority_delta
        counts = self.counts

        def consume_priority_delta() -> Any:
            delta = consume()
            if delta is not None:
                counts["policy.delta_flows"] += len(delta)
            return delta

        policy.consume_priority_delta = consume_priority_delta
        return policy

    def _fill(self, fn: Callable[..., Any], is_wrr: bool) -> Callable[..., Any]:
        """A water-fill binding with per-call work counters.

        Each fill's distinct output rates are its rounds up to ties; a
        round scans every link of the fabric, but only links with
        members can bottleneck.
        """
        class_fill = self.span("fill.class", fn)
        conservation_fill = self.span("fill.conservation", fn)
        counts = self.counts
        clock = time.perf_counter
        stack = self._stack

        def water_fill_membership(membership: Any, residual: Any) -> Any:
            if is_wrr and membership is self._engine_flows:
                rates = conservation_fill(membership, residual)
            else:
                rates = class_fill(membership, residual)
            start = clock()
            levels = len(set(rates.values()))
            active = len(membership.link_members)
            counts["fill.flows"] += len(rates)
            counts["fill.rate_levels"] += levels
            counts["fill.active_links"] += active
            counts["fill.links_scanned"] += levels * membership.num_links
            counts["fill.active_link_rounds"] += levels * active
            # Counting is tracer work: keep it out of the caller's self time.
            if stack:
                stack[-1] += clock() - start
            return rates

        return water_fill_membership

    # ------------------------------------------------------------------
    # Export
    # ------------------------------------------------------------------
    def percentile_samples(self) -> Dict[str, int]:
        """Sample count behind each reported percentile metric."""
        allocate = len(self.samples["engine.allocate"])
        return {
            "engine.allocate_p50_us": allocate,
            "engine.allocate_p99_us": allocate,
            "policy.update_p99_us": len(self.samples["policy.on_update"]),
        }

    def spans(self) -> Dict[str, Dict[str, float]]:
        """Per-span calls, total and self seconds (the trace file body)."""
        return {
            name: {
                "calls": self.calls[name],
                "total_s": self.total[name],
                "self_s": self.self_time[name],
            }
            for name in sorted(self.calls)
        }


def percentile_us(values: List[float], q: float) -> float:
    """Nearest-rank ``q`` percentile of ``values`` (seconds) in µs."""
    if not values:
        return 0.0
    ordered = sorted(values)
    rank = max(1, math.ceil(len(ordered) * q / 100))
    return ordered[rank - 1] * 1e6
