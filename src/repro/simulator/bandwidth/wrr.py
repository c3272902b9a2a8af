"""SPQ emulation via Weighted Round Robin — Gurita's starvation mitigation.

Pure SPQ can starve low-priority traffic (paper §IV.B, "Starvation
Mitigation").  Gurita therefore *emulates* SPQ with WRR: each priority
class is guaranteed a bandwidth share derived from the average waiting time
that class would experience under true SPQ, so low classes keep trickling
while high classes still dominate.

Derivation (paper, after Kleinrock):  with per-class loads ``rho_k`` and
prefix sums ``sigma_k = rho_0 + ... + rho_k``, the mean SPQ waiting time of
class k is proportional to ``1 / ((1 - sigma_{k-1}) (1 - sigma_k))``.  A
class that would *wait longer* under SPQ is a *lower* priority class, so to
mimic SPQ's bandwidth ordering the WRR weight of class k is proportional to
the inverse waiting time::

    w_k  ∝  (1 - sigma_{k-1}) (1 - sigma_k)

normalized so that ``sum w_k = 1``.  (The paper's formula as printed reads
``w_k = W_k / sum W``, which would order weights backwards; we implement the
inverse-wait reading by default and keep the literal one available for
ablation via ``mode="literal"``.)
"""

from __future__ import annotations

from typing import Dict, List, Mapping, Sequence

import numpy as np
import numpy.typing as npt

from repro.floatsum import ordered_sum
from repro.simulator.bandwidth.maxmin import (
    LinkMembership,
    Route,
    water_fill_membership,
)
from repro.simulator.bandwidth.spq import group_by_class

#: Total utilisation assumed when converting flow counts to loads; keeps
#: the queueing formula away from its 1/(1-rho) singularity.
DEFAULT_UTILIZATION = 0.9


def class_loads_from_counts(
    counts: Sequence[int],
    utilization: float = DEFAULT_UTILIZATION,
) -> List[float]:
    """Per-class loads ``rho_k`` proportional to active-flow counts.

    The paper reads per-queue arrival rates off the switches; the
    simulator's observable analogue is the number of active flows per
    class.  Loads are scaled to sum to ``utilization`` (< 1).
    """
    total = sum(counts)
    if total == 0:
        return [0.0] * len(counts)
    return [utilization * c / total for c in counts]


def spq_waiting_times(loads: Sequence[float]) -> List[float]:
    """Relative mean SPQ waiting time per class (nonpreemptive M/M/1).

    Only ratios matter for the WRR weights, so the residual-service
    numerator common to all classes is dropped.
    """
    waits: List[float] = []
    sigma_prev = 0.0
    for rho in loads:
        sigma = min(sigma_prev + rho, 0.999)
        denom = (1.0 - sigma_prev) * (1.0 - sigma)
        waits.append(1.0 / max(denom, 1e-9))
        sigma_prev = sigma
    return waits


def wrr_weights(loads: Sequence[float], mode: str = "inverse_wait") -> List[float]:
    """WRR weights per class from SPQ waiting times.

    ``mode="inverse_wait"`` (default): weight ∝ 1 / W_k — emulates SPQ's
    bandwidth ordering while guaranteeing every class a share.
    ``mode="literal"``: weight ∝ W_k — the paper's formula as printed
    (kept for ablation).
    """
    waits = spq_waiting_times(loads)
    if mode == "inverse_wait":
        raw = [1.0 / w for w in waits]
    elif mode == "literal":
        raw = list(waits)
    else:
        raise ValueError(f"unknown WRR weight mode {mode!r}")
    total = ordered_sum(raw)
    if total <= 0:
        return [1.0 / len(raw)] * len(raw)
    return [r / total for r in raw]


def allocate_wrr(
    flow_routes: Mapping[int, Route],
    priorities: Mapping[int, int],
    capacities: Sequence[float],
    num_classes: int,
    utilization: float = DEFAULT_UTILIZATION,
    weight_mode: str = "inverse_wait",
) -> Dict[int, float]:
    """Rates under WRR-emulated SPQ.

    Two passes keep the allocation work-conserving:

    1. every class water-fills within its guaranteed per-link budget
       ``w_k * capacity`` (so no class starves);
    2. leftover capacity is water-filled across *all* flows, their pass-1
       rates acting as a floor.
    """
    caps = np.array(capacities, dtype=float)
    groups = group_by_class(flow_routes, priorities, num_classes)
    class_members = [
        LinkMembership.from_routes(group, len(caps)) for group in groups
    ]
    all_flows = LinkMembership.from_routes(flow_routes, len(caps))
    return allocate_wrr_memberships(
        class_members,
        all_flows,
        caps,
        utilization=utilization,
        weight_mode=weight_mode,
    )


def allocate_wrr_memberships(
    class_members: Sequence[LinkMembership],
    all_flows: LinkMembership,
    capacities: npt.NDArray[np.float64],
    utilization: float = DEFAULT_UTILIZATION,
    weight_mode: str = "inverse_wait",
) -> Dict[int, float]:
    """WRR rates over prebuilt memberships (shared core; the engine's path).

    ``class_members`` mirror :func:`group_by_class`; ``all_flows`` is the
    union membership used by the work-conservation pass.  ``capacities`` is
    not mutated.
    """
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
        # class_rates order — float-identical to the historical nested loop.
        route_arrays = members.route_arrays
        arrs = [route_arrays[flow_id] for flow_id in class_rates]  # simlint: ignore[SIM202] (per-class batch setup, bounded by num_classes)
        if arrs:
            lengths = np.fromiter(
                (a.size for a in arrs), dtype=np.intp, count=len(arrs)  # simlint: ignore[SIM202] (per-class batch setup, bounded by num_classes)
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
