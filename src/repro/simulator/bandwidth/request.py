"""Allocation requests: what a scheduling policy asks of the network.

A scheduler does not set rates directly.  Each reallocation round it
returns an :class:`AllocationRequest` describing *how* the network should
divide bandwidth — plain max-min (PFS / TCP), strict priority queuing, or
Gurita's WRR emulation — plus the per-flow priority classes.  The runtime
hands the request to the incremental engine
(:meth:`~repro.simulator.bandwidth.engine.AllocationState.allocate`);
:func:`dispatch_allocation` computes the same rates from scratch and is the
reference the invariant checker audits the engine's rates against.
"""

from __future__ import annotations

import enum
from typing import Dict, Mapping, Optional, Sequence, Tuple

from repro.errors import SchedulerError
from repro.simulator.bandwidth.maxmin import Route, allocate_maxmin
from repro.simulator.bandwidth.spq import allocate_spq
from repro.simulator.bandwidth.wrr import DEFAULT_UTILIZATION, allocate_wrr

#: Number of priority queues used in the paper's evaluation (§V).
DEFAULT_NUM_CLASSES = 4

#: What commodity switches typically support (paper cites 8).
MAX_SWITCH_CLASSES = 8


class AllocationMode(enum.Enum):
    """How link bandwidth is divided among flows."""

    MAXMIN = "maxmin"  #: per-flow fair sharing (TCP model; the PFS baseline)
    SPQ = "spq"  #: strict priority queuing
    WRR = "wrr"  #: WRR-emulated SPQ (Gurita's starvation mitigation)


class AllocationRequest:
    """A scheduler's bandwidth-division instructions for one round.

    A ``__slots__`` class (historically a dataclass): one request is built
    per reallocation round, and the engine touches its fields on every
    allocation.  Construction, equality, and repr mirror the dataclass.
    """

    __slots__ = ("mode", "priorities", "num_classes", "utilization", "weight_mode")

    def __init__(
        self,
        mode: AllocationMode = AllocationMode.MAXMIN,
        priorities: Optional[Dict[int, int]] = None,
        num_classes: int = DEFAULT_NUM_CLASSES,
        utilization: float = DEFAULT_UTILIZATION,
        weight_mode: str = "inverse_wait",
    ) -> None:
        self.mode = mode
        #: flow id -> priority class, 0 = highest.  Ignored for MAXMIN.
        self.priorities: Dict[int, int] = {} if priorities is None else priorities
        self.num_classes = num_classes
        #: Utilisation parameter for the WRR waiting-time model.
        self.utilization = utilization
        #: "inverse_wait" (default) or "literal"; see :mod:`...bandwidth.wrr`.
        self.weight_mode = weight_mode
        if not 1 <= self.num_classes <= MAX_SWITCH_CLASSES:
            raise SchedulerError(
                f"num_classes must be in [1, {MAX_SWITCH_CLASSES}], "
                f"got {self.num_classes}"
            )

    def _astuple(self) -> Tuple[object, ...]:
        return (
            self.mode,
            self.priorities,
            self.num_classes,
            self.utilization,
            self.weight_mode,
        )

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not AllocationRequest:
            return NotImplemented
        assert isinstance(other, AllocationRequest)
        return self._astuple() == other._astuple()

    def __repr__(self) -> str:
        return (
            f"AllocationRequest(mode={self.mode!r}, "
            f"priorities={self.priorities!r}, "
            f"num_classes={self.num_classes!r}, "
            f"utilization={self.utilization!r}, "
            f"weight_mode={self.weight_mode!r})"
        )

    def params_key(self) -> Tuple[object, ...]:
        """Everything but the priority map, as a cache-invalidation key.

        The incremental engine discards its cached rates (and, when
        ``num_classes`` changes, its per-class memberships) whenever two
        consecutive requests disagree on this key.
        """
        return (
            self.mode,
            self.num_classes,
            self.utilization,
            self.weight_mode,
        )


def dispatch_allocation(
    request: AllocationRequest,
    flow_routes: Mapping[int, Route],
    capacities: Sequence[float],
) -> Dict[int, float]:
    """Compute per-flow rates for ``request`` over the given routes.

    Builds every link membership from scratch: the engine audit's oracle,
    not a simulation path.
    """
    if request.mode is AllocationMode.MAXMIN:
        return allocate_maxmin(flow_routes, list(capacities))
    if request.mode is AllocationMode.SPQ:
        return allocate_spq(
            flow_routes, request.priorities, capacities, request.num_classes
        )
    if request.mode is AllocationMode.WRR:
        return allocate_wrr(
            flow_routes,
            request.priorities,
            capacities,
            request.num_classes,
            utilization=request.utilization,
            weight_mode=request.weight_mode,
        )
    raise SchedulerError(f"unknown allocation mode {request.mode!r}")
