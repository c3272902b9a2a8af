"""The whole-fabric water-fill, kept as a test oracle.

``water_fill_membership`` below is the progressive-filling loop that
scans every link of the fabric each round: it derives the share vector
over all ``num_links`` entries, takes the minimum and the tie set over
all of them, and writes back and clamps the whole residual.  The
simulator's fill (:func:`repro.simulator.bandwidth.maxmin.water_fill_membership`)
works on the active links only; ``test_fill_oracle.py`` checks that the
two produce identical rates, rate key order and residuals.

Test-only: nothing under ``src/`` imports this module.
"""

from __future__ import annotations

from typing import Dict, List

import numpy as np
import numpy.typing as npt

from repro.simulator.bandwidth.maxmin import LinkMembership, share_at_most
from repro.simulator.units import BytesPerSec


def water_fill_membership(
    membership: LinkMembership,
    residual: npt.NDArray[np.float64],
) -> Dict[int, BytesPerSec]:
    """Max-min fair rates for ``membership`` within ``residual`` capacity.

    The core of :func:`water_fill`, operating on prebuilt membership
    structures.  ``membership`` is *not* mutated (the per-link counts are
    copied); ``residual`` *is* mutated — allocated bandwidth is subtracted
    and tiny negative drift is clamped — so callers can layer allocations,
    e.g. one priority class after another.
    """
    rates: Dict[int, BytesPerSec] = {}
    routes = membership.routes
    if not routes:
        return rates
    shares = np.empty_like(residual)
    num_buf = np.empty_like(residual)
    mask_buf = np.empty(residual.size, dtype=bool)

    # Initial share vector — same floats as the historical np.where
    # formulation: divide only where counts > 0, +inf everywhere else.
    # Subsequent rounds update *touched links only* with the identical
    # scalar formula (max(residual, 0) / count), so every round sees
    # exactly the share vector the full recompute would have produced.
    shares.fill(np.inf)
    np.maximum(residual, 0.0, out=num_buf)
    np.greater(membership.counts, 0, out=mask_buf)
    np.divide(num_buf, membership.counts, out=shares, where=mask_buf)

    # Round state lives in plain python containers — scalar list indexing
    # is several times cheaper than numpy item access at these sizes.
    # ``residual`` is written back below (all float arithmetic is IEEE
    # double either way — bit-identical).
    link_members = membership.link_members
    res_l: List[float] = residual.tolist()
    counts_l: List[int] = membership.counts.tolist()
    inf = np.inf

    frozen: Dict[int, None] = {}
    remaining = len(routes)
    while remaining > 0:
        bottleneck_share = float(shares.min())
        if not np.isfinite(bottleneck_share):
            # Remaining flows traverse no contended link (empty routes, or
            # inconsistent membership) — they cannot be rate-limited here.
            for flow_id in routes:
                if flow_id not in frozen:
                    rates[flow_id] = 0.0
            break
        bottleneck_links = (
            share_at_most(shares, bottleneck_share, out=mask_buf)
            .nonzero()[0]
            .tolist()
        )
        # A link's count hits zero the round it bottlenecks, so each
        # link's member list is scanned at most once per fill — skipping
        # already-frozen members with a dict check beats maintaining
        # shrunken member copies.
        newly_frozen: List[int] = []  # simlint: ignore[SIM202] (per-round scratch, bounded by flows frozen this round)
        for link_id in bottleneck_links:
            members = link_members.get(link_id)
            if members:
                for flow_id in members:
                    if flow_id not in frozen:
                        frozen[flow_id] = None
                        newly_frozen.append(flow_id)
        if not newly_frozen:
            # Defensive: should be impossible, but never spin forever.
            for flow_id in routes:
                if flow_id not in frozen:
                    rates[flow_id] = bottleneck_share
            break
        for flow_id in newly_frozen:
            rates[flow_id] = bottleneck_share
            route = routes[flow_id]
            for link_id in route:
                res_l[link_id] -= bottleneck_share
                counts_l[link_id] -= 1
            # Refresh the touched links' shares right away; a link shared
            # with a later flow of this round just gets recomputed again,
            # and only the final value is ever read (next round's min).
            for link_id in route:
                count = counts_l[link_id]
                if count > 0:
                    left = res_l[link_id]
                    shares[link_id] = (left if left > 0.0 else 0.0) / count
                else:
                    shares[link_id] = inf
        remaining -= len(newly_frozen)
    residual[:] = res_l

    # Clean up float drift: clamp tiny negative residuals to zero.
    np.clip(residual, 0.0, None, out=residual)
    return rates
