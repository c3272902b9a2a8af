"""Differential test: the simulator's WRR pass against the fabric-wide one.

The simulator's pass writes each class's budget and the leftover only at
the links that fill reads, and sums the classes' charges per active link
with one ``bincount``.  The oracle (``wrr_reference.py``) computes every
vector over the whole fabric and fills with the whole-fabric fill.  On
every input the two must give equal rates, and neither may mutate the
capacities.

Memberships are built the way the engine keeps them: flows are added,
removed, rerouted and moved between classes, so slots are reused and
``link_members`` iterates in first-member order.  Successive allocations
reuse one residual vector that starts with arbitrary entries, as the
engine's does.
"""

from __future__ import annotations

from typing import Dict, List

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from test_fill_oracle import CAPACITIES
from wrr_reference import allocate_wrr_memberships as reference_wrr

from repro.simulator.bandwidth.maxmin import LinkMembership
from repro.simulator.bandwidth.wrr import allocate_wrr_memberships

WEIGHT_MODES = st.sampled_from(["inverse_wait", "literal"])


class ClassedFlows:
    """An all-flows membership and per-class ones, kept in lockstep."""

    def __init__(self, num_links: int, num_classes: int) -> None:
        self.all_flows = LinkMembership(num_links)
        self.classes = [LinkMembership(num_links) for _ in range(num_classes)]
        self.class_of: Dict[int, int] = {}

    def add(self, flow_id: int, route, cls: int) -> None:
        self.all_flows.add(flow_id, route)
        self.classes[cls].add(flow_id, route)
        self.class_of[flow_id] = cls

    def remove(self, flow_id: int) -> None:
        self.all_flows.remove(flow_id)
        self.classes[self.class_of.pop(flow_id)].remove(flow_id)

    def reroute(self, flow_id: int, route) -> None:
        cls = self.class_of[flow_id]
        self.remove(flow_id)
        self.add(flow_id, route, cls)

    def move(self, flow_id: int, cls: int) -> None:
        route = self.all_flows.routes[flow_id]
        self.classes[self.class_of[flow_id]].remove(flow_id)
        self.classes[cls].add(flow_id, route)
        self.class_of[flow_id] = cls


def churn(draw, flows: ClassedFlows, pool: List[int], steps: int) -> None:
    """Random adds, removes, reroutes and class moves over ``pool``."""
    routes = st.lists(st.sampled_from(pool), max_size=4, unique=True).map(tuple)
    classes = st.integers(0, len(flows.classes) - 1)
    for _ in range(steps):
        live = sorted(flows.class_of)
        op = draw(st.integers(0, 5)) if live else 0
        if op <= 2:
            flow_id = draw(
                st.integers(0, 999).filter(lambda f: f not in flows.class_of)
            )
            flows.add(flow_id, draw(routes), draw(classes))
        elif op == 3:
            flows.remove(draw(st.sampled_from(live)))
        elif op == 4:
            flows.reroute(draw(st.sampled_from(live)), draw(routes))
        else:
            flows.move(draw(st.sampled_from(live)), draw(classes))


@st.composite
def wrr_problems(draw):
    """Empty class memberships over a few pool links, and capacities."""
    num_links = draw(st.integers(min_value=16, max_value=256))
    pool = draw(
        st.lists(
            st.integers(min_value=0, max_value=num_links - 1),
            min_size=1,
            max_size=10,
            unique=True,
        )
    )
    flows = ClassedFlows(num_links, draw(st.integers(min_value=1, max_value=4)))
    capacities = np.full(num_links, draw(CAPACITIES))
    for link in pool:
        capacities[link] = draw(CAPACITIES)
    # The engine's residual vector: whatever earlier allocations left.
    residual = np.full(num_links, draw(st.floats(min_value=0.0, max_value=10.0)))
    return flows, pool, capacities, residual


@given(wrr_problems(), st.data(), WEIGHT_MODES)
@settings(max_examples=300, deadline=None)
def test_wrr_matches_fabric_wide_reference(problem, data, weight_mode):
    flows, pool, capacities, residual = problem
    before = capacities.copy()
    for _ in range(data.draw(st.integers(min_value=1, max_value=3))):
        churn(data.draw, flows, pool, data.draw(st.integers(1, 16)))
        expected = reference_wrr(
            flows.classes, flows.all_flows, capacities, weight_mode=weight_mode
        )
        rates = allocate_wrr_memberships(
            flows.classes,
            flows.all_flows,
            capacities,
            residual,
            weight_mode=weight_mode,
        )
        assert rates == expected
        assert np.array_equal(capacities, before)
