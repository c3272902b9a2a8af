"""Incremental allocation engine: membership caching across epochs.

The flow-level simulator reallocates rates after every event batch.  The
policy logic is cheap; what dominates wall-clock is rebuilding the per-link
membership structures (``link_members`` / ``counts``) inside every
water-fill call — arXiv:1603.07981 measures exactly this recomputation cost
as the bottleneck of flow-level coflow simulators.

:class:`AllocationState` keeps those structures alive across allocation
epochs:

* the runtime feeds it **structural deltas** (flow added on release, flow
  removed on completion) instead of a fresh route map every round;
* **priority deltas** move flows between per-class memberships — either the
  precise changed-flow set a policy reports through
  :meth:`repro.schedulers.base.SchedulerPolicy.consume_priority_delta`, or
  a full diff against the previous round's priority map;
* when neither structure nor priorities nor request parameters changed, the
  previous rate vector is returned as-is (**cache hit**) without touching
  numpy at all.

Full membership rebuilds only happen when the class layout itself is
invalidated (first priority-mode allocation, or ``num_classes`` changed).
:class:`EngineStats` counts all of this.

The engine is the simulator's only allocation path.  Its oracle is the
from-scratch allocator
:func:`~repro.simulator.bandwidth.request.dispatch_allocation`: the
invariant checker's engine audit
(:meth:`~repro.simulator.invariants.InvariantChecker.audit_engine`)
rebuilds the memberships and the rates from the runtime's ground truth
and requires the engine's cached rates to equal the rebuilt ones exactly.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, FrozenSet, List, Optional, Sequence, Tuple

import numpy as np
import numpy.typing as npt

from repro.simulator.bandwidth.maxmin import (
    LinkMembership,
    Route,
    water_fill_membership,
)
from repro.simulator.bandwidth.request import AllocationMode, AllocationRequest
from repro.simulator.bandwidth.spq import allocate_spq_memberships
from repro.simulator.bandwidth.wrr import allocate_wrr_memberships
from repro.simulator.hotpath import hot_path
from repro.simulator.units import BytesPerSec


@dataclass
class EngineStats:
    """Counters describing how much work the incremental engine avoided."""

    #: total :meth:`AllocationState.allocate` calls
    allocations: int = 0
    #: allocations served straight from the cached rate vector
    cache_hits: int = 0
    #: from-scratch class-membership rebuilds (mode/num_classes invalidation)
    full_rebuilds: int = 0
    #: incremental membership row updates (flow add / remove / class move)
    delta_updates: int = 0
    #: reallocation epochs the runtime skipped via the dirty flag
    epochs_skipped: int = 0
    #: capacity revocations/restorations applied by fault injection
    capacity_revocations: int = 0

    def snapshot(self) -> "EngineStats":
        return EngineStats(
            allocations=self.allocations,
            cache_hits=self.cache_hits,
            full_rebuilds=self.full_rebuilds,
            delta_updates=self.delta_updates,
            epochs_skipped=self.epochs_skipped,
            capacity_revocations=self.capacity_revocations,
        )


class AllocationState:
    """Persistent allocation state for one simulation run.

    Owns the global flow membership, the per-class memberships (built
    lazily on the first SPQ/WRR request), the effective class of every
    active flow, and the last computed rate vector.

    Invalidation rules:

    * flow add/remove marks the structure dirty (cache miss) but only
      touches the changed rows;
    * a priority change moves the flow between class memberships (delta
      update);
    * a change of allocation mode parameters (``num_classes``) discards
      and rebuilds the class memberships (full rebuild);
    * anything else — identical active set, priorities, and request
      parameters — is a cache hit returning the previous rates.
    """

    def __init__(self, capacities: Sequence[BytesPerSec]) -> None:
        self._caps: npt.NDArray[np.float64] = np.asarray(capacities, dtype=float)
        self.all_flows = LinkMembership(len(self._caps))
        self._class_members: Optional[List[LinkMembership]] = None
        self._num_classes: Optional[int] = None
        #: effective (clamped) class per flow, valid when class members exist
        self._class_of: Dict[int, int] = {}
        self._priorities: Dict[int, int] = {}
        self._params: Optional[Tuple[object, ...]] = None
        self._structure_dirty = True
        self._last_rates: Dict[int, BytesPerSec] = {}
        self.stats = EngineStats()

    # ------------------------------------------------------------------
    # Read-only views (consumed by the runtime invariant auditor)
    # ------------------------------------------------------------------
    @property
    def class_members(self) -> Optional[List[LinkMembership]]:
        """Per-class memberships, or None before the first classed request."""
        return self._class_members

    @property
    def num_classes(self) -> Optional[int]:
        """Class count the memberships were built for."""
        return self._num_classes

    @property
    def class_of(self) -> Dict[int, int]:
        """Effective class per flow; treat as read-only."""
        return self._class_of

    @property
    def last_rates(self) -> Dict[int, BytesPerSec]:
        """The cached rate vector the latest :meth:`allocate` returned."""
        return self._last_rates

    # ------------------------------------------------------------------
    # Structural deltas (fed by the runtime as events are applied)
    # ------------------------------------------------------------------
    @hot_path
    def add_flow(self, flow_id: int, route: Route) -> None:
        """A flow became active (coflow released)."""
        self.all_flows.add(flow_id, route)
        if self._class_members is not None:
            assert self._num_classes is not None
            # Class unknown until the next request; park it in the lowest
            # class (the default for flows absent from a priority map) and
            # let the priority diff move it if the policy says otherwise.
            cls = self._num_classes - 1
            self._class_members[cls].add(flow_id, route)
            self._class_of[flow_id] = cls
        self._structure_dirty = True
        self.stats.delta_updates += 1

    @hot_path
    def remove_flow(self, flow_id: int) -> None:
        """A flow finished (all bytes delivered)."""
        self.all_flows.remove(flow_id)
        if self._class_members is not None:
            self._class_members[self._class_of.pop(flow_id)].remove(flow_id)
        self._priorities.pop(flow_id, None)
        self._structure_dirty = True
        self.stats.delta_updates += 1

    @hot_path
    def update_route(self, flow_id: int, route: Route) -> None:
        """A live flow moved to a new route (fault-driven reroute).

        Unlike remove+add, the flow's cached class assignment survives —
        essential for policies that report precise priority deltas, which
        would otherwise never re-report the unchanged class and leave the
        flow misfiled in the lowest class.
        """
        self.all_flows.remove(flow_id)
        self.all_flows.add(flow_id, route)
        if self._class_members is not None:
            cls = self._class_of[flow_id]
            self._class_members[cls].remove(flow_id)
            self._class_members[cls].add(flow_id, route)
        self._structure_dirty = True
        self.stats.delta_updates += 1

    @hot_path
    def set_capacity(self, link_id: int, capacity: BytesPerSec) -> None:
        """Revoke or restore one link's capacity (fault injection).

        Only the capacity vector entry changes — the link memberships,
        class layout, and priority map all stay valid, so this
        invalidates the rate cache for the affected link's next
        allocation without triggering any membership rebuild.
        ``capacity=0.0`` models a downed link (the water-fill gives its
        members zero share); the original capacity restores it.
        """
        if not 0 <= link_id < len(self._caps):
            raise IndexError(
                f"link {link_id} out of range (num_links={len(self._caps)})"
            )
        if capacity < 0:
            raise ValueError(f"capacity must be >= 0, got {capacity}")
        self._caps[link_id] = capacity
        self._structure_dirty = True
        self.stats.capacity_revocations += 1

    def capacity_of(self, link_id: int) -> BytesPerSec:
        """The engine's current (possibly revoked) capacity for a link."""
        return float(self._caps[link_id])

    # ------------------------------------------------------------------
    # Allocation
    # ------------------------------------------------------------------
    @hot_path
    def allocate(
        self,
        request: AllocationRequest,
        priority_delta: Optional[FrozenSet[int]] = None,
    ) -> Dict[int, BytesPerSec]:
        """Rates for ``request`` over the currently active flows.

        ``priority_delta`` is the policy-reported set of flows whose class
        changed since the last round (``None`` = unknown, do a full diff).
        The returned dict is the engine's cache — callers must not mutate
        it.
        """
        self.stats.allocations += 1
        params = request.params_key()
        params_changed = params != self._params
        needs_classes = request.mode is not AllocationMode.MAXMIN

        if not self._structure_dirty and not params_changed:
            if self._unchanged_priorities(request, priority_delta, needs_classes):
                self.stats.cache_hits += 1
                return self._last_rates

        if needs_classes:
            if self._class_members is None or self._num_classes != request.num_classes:
                self._rebuild_class_members(request)
            else:
                self._apply_priority_deltas(request, priority_delta)

        rates = self._compute(request)
        self._params = params
        self._priorities = dict(request.priorities)
        self._structure_dirty = False
        self._last_rates = rates
        return rates

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------
    def _unchanged_priorities(
        self,
        request: AllocationRequest,
        priority_delta: Optional[FrozenSet[int]],
        needs_classes: bool,
    ) -> bool:
        if not needs_classes:
            return True  # MAXMIN ignores priorities entirely
        if priority_delta is not None:
            return not priority_delta
        return request.priorities == self._priorities

    def _effective_class(self, request: AllocationRequest, flow_id: int) -> int:
        cls = request.priorities.get(flow_id, request.num_classes - 1)
        return min(max(cls, 0), request.num_classes - 1)

    def _rebuild_class_members(self, request: AllocationRequest) -> None:
        """Discard and rebuild the per-class memberships from scratch."""
        grouped: List[Dict[int, Route]] = [
            dict() for _ in range(request.num_classes)
        ]
        self._class_of = {}
        for flow_id, route in self.all_flows.routes.items():
            cls = self._effective_class(request, flow_id)
            grouped[cls][flow_id] = route
            self._class_of[flow_id] = cls
        self._class_members = [
            LinkMembership.from_routes(group, len(self._caps))
            for group in grouped
        ]
        self._num_classes = request.num_classes
        self.stats.full_rebuilds += 1

    def _apply_priority_deltas(
        self,
        request: AllocationRequest,
        priority_delta: Optional[FrozenSet[int]],
    ) -> None:
        """Move re-classed flows between class memberships."""
        assert self._class_members is not None
        candidates = (
            priority_delta
            if priority_delta is not None
            else self.all_flows.routes.keys()
        )
        # Deterministic application order: class-membership insertion order
        # must not depend on set iteration order (SIM003).
        for flow_id in sorted(candidates):
            route = self.all_flows.routes.get(flow_id)
            if route is None:  # reported but already finished
                continue
            cls = self._effective_class(request, flow_id)
            old = self._class_of[flow_id]
            if cls != old:
                self._class_members[old].remove(flow_id)
                self._class_members[cls].add(flow_id, route)
                self._class_of[flow_id] = cls
                self.stats.delta_updates += 1

    def _compute(self, request: AllocationRequest) -> Dict[int, BytesPerSec]:
        if request.mode is AllocationMode.MAXMIN:
            return water_fill_membership(self.all_flows, self._caps.copy())
        assert self._class_members is not None
        if request.mode is AllocationMode.SPQ:
            return allocate_spq_memberships(self._class_members, self._caps.copy())
        return allocate_wrr_memberships(
            self._class_members,
            self.all_flows,
            self._caps,
            utilization=request.utilization,
            weight_mode=request.weight_mode,
        )
