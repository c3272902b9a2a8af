"""Max-min fair rate allocation by progressive filling.

This is the simulator's model of TCP sharing (the paper implements "a rate
limiter that behaves like TCP"): flows traversing a bottleneck link share it
equally, and no flow can increase its rate without decreasing that of a flow
with an equal or smaller rate (Bertsekas & Gallager's water-filling).

This is the hot path of the whole simulator.  :func:`water_fill_membership`
works on the *active* links only — the links at least one of its flows
crosses.  A link without members has share +inf and can never bottleneck,
so a fill's work scales with the links its flows cross, not with the
fabric (6,144 directed links at k=16, about 166k at the paper's 48 pods).
:class:`LinkMembership` gives every active link a dense *slot* and keeps
each flow's route as slots, so a fill indexes its per-link state by slot
and allocates nothing sized by the fabric.  The residual is read and
written only at active links; every caller passes residuals >= 0 at the
other links, so clamping just the active entries is exactly a
whole-array clamp.

The round loop maintains the active links' fair-share vector
*incrementally*: it is derived once per fill, then each round takes its
minimum, gathers the links tied with it (each found minimum is set to
+inf and the next one taken), freezes their members in ascending link id,
and recomputes the share at only the links those flows cross, in the same
pass that subtracts their rates.  A link's count hits zero the round it
bottlenecks, so each member list is scanned at most once per fill.
Within one round every frozen flow subtracts the *same* bottleneck share
from its links, so the produced rates do not depend on the order flows
were frozen in.

The membership structures (which flows cross which link) are factored into
:class:`LinkMembership` so the incremental engine
(:mod:`repro.simulator.bandwidth.engine`) can keep them alive across
allocation epochs and mutate them by flow add/remove deltas instead of
rebuilding them on every call.  :func:`water_fill` builds a fresh
membership per call; it is the from-scratch reference the invariant
checker audits the engine against.

Links whose share ties with the bottleneck within ``_EPSILON`` freeze in
the same round: capacities revoked to zero by fault injection, or
degraded to within ``_EPSILON`` of zero, freeze their flows instead of
spinning the progressive-filling loop on sub-epsilon residuals.
"""

from __future__ import annotations

import math
from typing import Dict, List, Mapping, Optional, Sequence, Tuple, Union

import numpy as np
import numpy.typing as npt

from repro.simulator.hotpath import hot_path
from repro.simulator.units import BytesPerSec

#: Rate tolerance for the bottleneck tie test (bytes/second).
_EPSILON: BytesPerSec = 1e-9

#: A flow's route: the directed link ids it traverses.
Route = Tuple[int, ...]


class LinkMembership:
    """Per-link flow membership: who crosses each link, and how many.

    Holds exactly the structures the water-filling loop needs — a route per
    flow, an insertion-ordered member table per link, and a per-link count
    vector — and supports O(|route|) add/remove so the incremental engine
    can maintain one instance across allocation epochs.

    ``link_members`` maps link id -> insertion-ordered dict used as an
    ordered set (values are ``None``); deterministic iteration order is what
    keeps engine allocations reproducible run to run.

    Every active link (one with members) holds a dense slot:
    ``slot_links[slot_of[link]] == link``, and ``route_slots`` gives each
    flow's route as slots.  A link gets the next slot when it gains its
    first member; when it loses its last one, the link in the last slot
    moves into its place.  :meth:`active_links` is ``slot_links`` as an
    index array, rebuilt only after the slots change.
    """

    __slots__ = (
        "num_links",
        "routes",
        "counts",
        "link_members",
        "slot_of",
        "slot_links",
        "route_slots",
        "_active",
    )

    def __init__(self, num_links: int) -> None:
        self.num_links = num_links
        self.routes: Dict[int, Route] = {}
        self.counts: npt.NDArray[np.int64] = np.zeros(num_links, dtype=np.int64)
        self.link_members: Dict[int, Dict[int, None]] = {}
        self.slot_of: Dict[int, int] = {}
        self.slot_links: List[int] = []
        #: per-flow route as slots, kept in lockstep with ``routes``
        self.route_slots: Dict[int, Tuple[int, ...]] = {}
        self._active: Optional[npt.NDArray[np.intp]] = None

    @classmethod
    def from_routes(
        cls, flow_routes: Mapping[int, Route], num_links: int
    ) -> "LinkMembership":
        """Build membership from scratch."""
        membership = cls(num_links)
        for flow_id, route in flow_routes.items():
            membership.add(flow_id, route)
        return membership

    def add(self, flow_id: int, route: Route) -> None:
        if flow_id in self.routes:
            raise ValueError(f"flow {flow_id} already in membership")
        self.routes[flow_id] = route
        slot_of = self.slot_of
        for link_id in route:
            self.counts[link_id] += 1
            members = self.link_members.get(link_id)
            if members is None:
                # setdefault(link_id, {}) paid for an empty dict on every
                # hop; this allocates only when a link gains its first
                # member.
                members = self.link_members[link_id] = {}  # simlint: ignore[SIM202] (first-member only)
                slot_of[link_id] = len(self.slot_links)
                self.slot_links.append(link_id)  # simlint: ignore[SIM307] (one entry per active link; remove() frees it)
                self._active = None
            members[flow_id] = None
        self.route_slots[flow_id] = tuple(map(slot_of.__getitem__, route))

    def remove(self, flow_id: int) -> None:
        route = self.routes.pop(flow_id)
        del self.route_slots[flow_id]
        for link_id in route:
            self.counts[link_id] -= 1
            members = self.link_members[link_id]
            del members[flow_id]
            if not members:
                del self.link_members[link_id]
                self._free_slot(link_id)

    def _free_slot(self, link_id: int) -> None:
        """Move the last slot's link into the slot ``link_id`` vacated."""
        self._active = None
        slot_of = self.slot_of
        slot = slot_of.pop(link_id)
        moved = self.slot_links.pop()
        if moved == link_id:
            return
        self.slot_links[slot] = moved
        slot_of[moved] = slot
        routes = self.routes
        route_slots = self.route_slots
        for flow_id in self.link_members[moved]:
            # The flow remove() is dropping may still be listed on a link
            # further along its route; its route is already gone.
            route = routes.get(flow_id)
            if route is not None:
                route_slots[flow_id] = tuple(map(slot_of.__getitem__, route))  # simlint: ignore[SIM202] (one per member of a moved link, only when a link empties)

    def active_links(self) -> npt.NDArray[np.intp]:
        """``slot_links`` as an index array; callers must not mutate it."""
        active = self._active
        if active is None:
            active = self._active = np.array(self.slot_links, dtype=np.intp)
        return active

    def __len__(self) -> int:
        return len(self.routes)

    def __contains__(self, flow_id: int) -> bool:
        return flow_id in self.routes


@hot_path
def water_fill_membership(
    membership: LinkMembership,
    residual: npt.NDArray[np.float64],
) -> Dict[int, BytesPerSec]:
    """Max-min fair rates for ``membership`` within ``residual`` capacity.

    The core of :func:`water_fill`, operating on prebuilt membership
    structures.  ``membership`` is *not* mutated (its per-link counts are
    gathered into per-fill lists); ``residual`` *is* mutated — allocated
    bandwidth is subtracted and tiny negative drift is clamped — so
    callers can layer allocations, e.g. one priority class after another.

    Only the *active* links — ``membership.slot_links`` — are read or
    written: a link without members has share +inf and can never
    bottleneck, so the work of a fill scales with the links its flows
    cross, not with ``num_links``.  The clamp therefore touches active
    entries only; every caller passes ``residual >= 0`` elsewhere
    (capacities, WRR budgets, or an earlier fill's clamped output), which
    is why this is exactly the whole-array clamp.
    """
    routes = membership.routes
    slot_links = membership.slot_links
    if not slot_links:
        # Every route is empty: no link can rate-limit these flows.
        return dict.fromkeys(routes, 0.0)
    link_members = membership.link_members
    route_slots = membership.route_slots
    # Per-fill state is indexed by slot.  Round state lives in plain
    # lists — scalar list indexing is several times cheaper than numpy
    # item access at these sizes.
    active = membership.active_links()
    res_active = residual[active]
    counts_active = membership.counts[active]

    # Initial shares — the same floats as max(residual, 0) / count over
    # the whole fabric, +inf where a link has no count left.  Later
    # rounds refresh only the links a frozen flow crosses, with the
    # identical scalar formula.
    inf = np.inf
    shares = np.full(len(slot_links), inf)
    np.divide(
        np.maximum(res_active, 0.0),
        counts_active,
        out=shares,
        where=counts_active > 0,
    )
    res_l: List[float] = res_active.tolist()
    counts_l: List[int] = counts_active.tolist()
    argmin = shares.argmin
    item = shares.item

    rates: Dict[int, BytesPerSec] = {}
    num_flows = len(routes)
    while len(rates) < num_flows:
        slot = argmin()
        bottleneck_share = item(slot)
        if not math.isfinite(bottleneck_share):
            # Remaining flows traverse no contended link (empty routes, or
            # inconsistent membership) — they cannot be rate-limited here.
            for flow_id in routes:
                if flow_id not in rates:
                    rates[flow_id] = 0.0
            break
        # Gather every link within _EPSILON of the bottleneck: mask each
        # minimum found with +inf and take the next.  A tied link's count
        # hits zero this round, so +inf is its share afterwards anyway.
        limit = bottleneck_share + _EPSILON
        tied = [slot]  # simlint: ignore[SIM202] (per-round scratch, bounded by the links tied this round)
        shares[slot] = inf
        slot = argmin()
        while item(slot) <= limit:
            tied.append(slot)
            shares[slot] = inf
            slot = argmin()
        # Freeze the tied links in ascending link id, as a scan of the
        # whole fabric would: slots are in no particular order, and the
        # freeze order fixes the rates' key order.
        if len(tied) > 1:
            tied.sort(key=slot_links.__getitem__)
        frozen_before = len(rates)
        for slot in tied:
            for flow_id in link_members[slot_links[slot]]:
                if flow_id in rates:
                    continue
                rates[flow_id] = bottleneck_share
                # Subtract and refresh in one pass: a route crosses each
                # link once, and a link shared with a later flow of this
                # round is just refreshed again (only next round's
                # minimum reads shares).
                for s in route_slots[flow_id]:
                    left = res_l[s] - bottleneck_share
                    res_l[s] = left
                    count = counts_l[s] - 1
                    counts_l[s] = count
                    if count > 0:
                        shares[s] = (left if left > 0.0 else 0.0) / count
                    else:
                        shares[s] = inf
        if len(rates) == frozen_before:
            # Defensive: should be impossible, but never spin forever.
            for flow_id in routes:
                if flow_id not in rates:
                    rates[flow_id] = bottleneck_share
            break

    # Write back the active entries, clamping tiny negative float drift.
    res_active = np.array(res_l, dtype=np.float64)
    np.maximum(res_active, 0.0, out=res_active)
    residual[active] = res_active
    return rates


def water_fill(
    flow_routes: Mapping[int, Route],
    residual: Union[npt.NDArray[np.float64], List[float]],
) -> Dict[int, BytesPerSec]:
    """Max-min fair rates for ``flow_routes`` within ``residual`` capacity.

    ``residual`` is indexed by link id and is **mutated** (allocated
    bandwidth is subtracted) so callers can layer allocations, e.g. one
    priority class after another.  Pass a ``numpy.ndarray`` to avoid a
    copy; plain lists are converted (and mutated via slice write-back).

    Builds the membership structures from scratch on every call — the
    incremental engine keeps a persistent :class:`LinkMembership` and calls
    :func:`water_fill_membership` directly instead.

    Returns a rate (bytes/second) for every flow in ``flow_routes``.
    """
    if not flow_routes:
        return {}

    if isinstance(residual, np.ndarray):
        res = residual
    else:
        res = np.asarray(residual, dtype=np.float64)
    membership = LinkMembership.from_routes(flow_routes, len(res))
    rates = water_fill_membership(membership, res)
    if not isinstance(residual, np.ndarray):
        residual[:] = res.tolist()
    return rates


def allocate_maxmin(
    flow_routes: Mapping[int, Route],
    capacities: Sequence[BytesPerSec],
) -> Dict[int, BytesPerSec]:
    """Max-min fair rates against fresh link capacities (non-mutating)."""
    return water_fill(flow_routes, np.array(capacities, dtype=float))
