"""The fabric-wide WRR pass, kept as a test oracle.

``allocate_wrr_memberships`` below is WRR-emulated SPQ as the simulator
computed it before its pass worked on active links only: every class's
budget is ``capacities * share`` over the whole fabric, the classes'
charges are scatter-added into a fabric-sized ``consumed`` vector, and
the leftover is ``max(capacities - consumed, 0)`` over the whole fabric.
Both passes fill through the whole-fabric fill of
``fill_reference.py``.  ``test_wrr_oracle.py`` checks that the
simulator's pass (:func:`repro.simulator.bandwidth.wrr.allocate_wrr_memberships`)
produces equal rates.

Test-only: nothing under ``src/`` imports this module.
"""

from __future__ import annotations

from typing import Dict, Sequence

import numpy as np
import numpy.typing as npt
from fill_reference import water_fill_membership

from repro.simulator.bandwidth.maxmin import LinkMembership
from repro.simulator.bandwidth.wrr import (
    DEFAULT_UTILIZATION,
    class_loads_from_counts,
    wrr_weights,
)


def allocate_wrr_memberships(
    class_members: Sequence[LinkMembership],
    all_flows: LinkMembership,
    capacities: npt.NDArray[np.float64],
    utilization: float = DEFAULT_UTILIZATION,
    weight_mode: str = "inverse_wait",
) -> Dict[int, float]:
    """WRR rates over prebuilt memberships; ``capacities`` is not mutated."""
    counts = [len(members) for members in class_members]
    weights = wrr_weights(
        class_loads_from_counts(counts, utilization), mode=weight_mode
    )

    # Redistribute the guaranteed share of empty classes to busy ones so the
    # guaranteed pass itself wastes nothing.  Summed left to right, as in
    # wrr_weights.
    busy_weight = 0.0
    for w, c in zip(weights, counts):
        if c > 0:
            busy_weight += w
    rates: Dict[int, float] = {}
    caps = capacities
    consumed = np.zeros_like(caps)

    for cls, members in enumerate(class_members):
        if not len(members) or busy_weight <= 0:
            continue
        share = weights[cls] / busy_weight
        # Guaranteed budget for this class on every link.
        budget = caps * share
        class_rates = water_fill_membership(members, budget)
        rates.update(class_rates)
        # Unbuffered np.add.at applies the per-flow charges sequentially in
        # class_rates order.
        routes = members.routes
        arrs = [
            np.asarray(routes[flow_id], dtype=np.intp) for flow_id in class_rates
        ]
        if arrs:
            lengths = np.fromiter(
                (a.size for a in arrs), dtype=np.intp, count=len(arrs)
            )
            charges = np.repeat(
                np.fromiter(
                    class_rates.values(), dtype=np.float64, count=len(arrs)
                ),
                lengths,
            )
            np.add.at(consumed, np.concatenate(arrs), charges)

    # Work-conservation pass: hand out whatever is left to everyone.
    leftover = np.maximum(caps - consumed, 0.0)
    extra = water_fill_membership(all_flows, leftover)
    for flow_id, bonus in extra.items():
        rates[flow_id] = rates.get(flow_id, 0.0) + bonus
    return rates
