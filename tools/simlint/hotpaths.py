"""The hot-path registry: which functions ``simlint --perf`` protects.

PR 6's events/sec trajectory was bought by hand-applying hot-path idioms
(guarded logging, ``__slots__``, allocation-free loops, cached lookups)
to a specific set of functions.  This module names that set so the
SIM2xx rules can keep it fast:

* ``roots`` are the entry points of the hot loop.  Roots defined under
  ``repro.simulator`` must also carry the ``@hot_path`` marker from
  :mod:`repro.simulator.hotpath` next to their definition — the analyzer
  cross-checks decorator and registry and reports drift as SIM207.
  Roots outside the simulator package (the jobs layer cannot import it
  without a cycle) are registry-only.
* ``closure`` entries are the helpers those roots call.  They are
  *acknowledged hot*: the SIM2xx rules check them exactly like roots,
  but they carry no decorator.  A hot function calling a project
  function in *neither* set is a SIM207 finding — the closure can only
  grow deliberately, either by registering the callee here or by
  acknowledging a genuinely-cold call site with
  ``# simlint: hot-ok[reason]``.

Names are full dotted paths (``module.Class.method`` or
``module.function``) exactly as the PR-4 callgraph spells them.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import FrozenSet, Tuple


@dataclass(frozen=True)
class HotPathRegistry:
    """The analyzer half of the hot-path contract."""

    #: Hot-loop entry points.  Under ``decorated_prefix`` these must
    #: carry the ``@hot_path`` marker at the definition site.
    roots: Tuple[str, ...] = ()
    #: Helpers acknowledged as part of the hot closure (no decorator).
    closure: Tuple[str, ...] = ()
    #: Package prefix whose roots must be decorated in-source.
    decorated_prefix: str = "repro.simulator"

    def registered(self) -> FrozenSet[str]:
        """Every name the SIM2xx rules treat as hot."""
        return frozenset(self.roots) | frozenset(self.closure)


#: The shipped registry: what a default run reaches per event batch,
#: traced from the profiling recipe in docs/performance.md (allocation
#: epoch: drain events, decide, water-fill, advance flows).  The
#: from-scratch allocators (``water_fill``, ``dispatch_allocation`` and
#: the per-mode functions behind it) are not here: only the invariant
#: checker's engine audit and the tests reach them.
REGISTRY = HotPathRegistry(
    roots=(
        # Water-filling — the top profile entry.
        "repro.simulator.bandwidth.maxmin.water_fill_membership",
        # Incremental allocation engine epoch methods.
        "repro.simulator.bandwidth.engine.AllocationState.allocate",
        "repro.simulator.bandwidth.engine.AllocationState.add_flow",
        "repro.simulator.bandwidth.engine.AllocationState.remove_flow",
        "repro.simulator.bandwidth.engine.AllocationState.update_route",
        "repro.simulator.bandwidth.engine.AllocationState.set_capacity",
        # Event queue: every event passes through here.
        "repro.simulator.events.EventQueue.push",
        "repro.simulator.events.EventQueue.pop",
        "repro.simulator.events.EventQueue.peek_time",
        "repro.simulator.events.EventQueue.has_event_within",
        # Memoized ECMP route decisions.
        "repro.simulator.routing.ecmp.EcmpRouter.route_flow",
        # The runtime event loop proper (run() is setup/teardown).
        "repro.simulator.runtime.CoflowSimulation._step",
        "repro.simulator.runtime.CoflowSimulation._advance_to",
        "repro.simulator.runtime.CoflowSimulation._handle",
        "repro.simulator.runtime.CoflowSimulation._finish_ripe_flows",
        "repro.simulator.runtime.CoflowSimulation._reallocate",
        # Flow advancement lives in the jobs layer, which cannot import
        # repro.simulator.hotpath without a cycle: registry-only root.
        "repro.jobs.flow.Flow.advance",
    ),
    closure=(
        # maxmin helpers reached from the fill loop and the engine.
        "repro.simulator.bandwidth.maxmin.share_at_most",
        "repro.simulator.bandwidth.maxmin.LinkMembership.from_routes",
        "repro.simulator.bandwidth.maxmin.LinkMembership.add",
        "repro.simulator.bandwidth.maxmin.LinkMembership.remove",
        # Priority-class allocators the engine dispatches per epoch.
        "repro.simulator.bandwidth.spq.allocate_spq_memberships",
        "repro.simulator.bandwidth.wrr.class_loads_from_counts",
        "repro.simulator.bandwidth.wrr.spq_waiting_times",
        "repro.simulator.bandwidth.wrr.wrr_weights",
        "repro.simulator.bandwidth.wrr.allocate_wrr_memberships",
        "repro.simulator.bandwidth.request.AllocationRequest.params_key",
        # Engine internals behind the epoch methods.
        "repro.simulator.bandwidth.engine.AllocationState._unchanged_priorities",
        "repro.simulator.bandwidth.engine.AllocationState._effective_class",
        "repro.simulator.bandwidth.engine.AllocationState._rebuild_class_members",
        "repro.simulator.bandwidth.engine.AllocationState._apply_priority_deltas",
        "repro.simulator.bandwidth.engine.AllocationState._compute",
        # Blessed time comparison helpers (called per event batch).
        "repro.simulator.timecmp.time_resolution",
        "repro.simulator.timecmp.times_close",
        "repro.simulator.timecmp.time_before",
        # ECMP helpers behind route_flow (and the outage-path liveness
        # probe, hot while faults are in flight).
        "repro.simulator.routing.ecmp.flow_hash",
        "repro.simulator.routing.ecmp.EcmpRouter._num_choices",
        "repro.simulator.routing.ecmp.EcmpRouter.alive_routes",
        "repro.simulator.routing.ecmp.EcmpRouter.route_is_alive",
        # Runtime helpers dispatched from _handle.
        "repro.simulator.runtime.CoflowSimulation._release_coflow",
        "repro.simulator.runtime.CoflowSimulation._handle_scheduler_update",
        "repro.simulator.runtime.CoflowSimulation._time_tick",
        # Jobs-layer helpers on the event path (registry-only, see above).
        "repro.jobs.coflow.Coflow.release",
    ),
)
