"""Differential test: the active-link water-fill against the whole-fabric one.

The simulator's fill reads and writes only the links that carry a flow
and freezes each round's tied links in ascending link id.  The oracle
(``fill_reference.py``) scans every link of the fabric each round.  On
every input the two must agree exactly: the same rates (``==``), the
same rate key order, and the same residual array afterwards.

Memberships are built through ``add``/``remove`` churn, so
``link_members`` iterates in first-member order rather than link-id
order.  Fabrics have 16-256 links of which only a few are active, and
capacities include 0.0, exact ties and values within ``_EPSILON`` of
each other.
"""

from __future__ import annotations

from typing import Dict, Tuple

import numpy as np
from fill_reference import water_fill_membership as reference_fill
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.simulator.bandwidth.maxmin import (
    _EPSILON,
    LinkMembership,
    water_fill_membership,
)

#: Capacities that make the fill's edge cases likely: dead links, exact
#: ties, near-ties inside the ``_EPSILON`` tolerance, sub-epsilon
#: residuals, and line rates of the size the simulator uses.
CAPACITIES = st.one_of(
    st.just(0.0),
    st.sampled_from([1.0, 2.5, 6.0, 1.25e9]),
    st.integers(min_value=-4, max_value=4).map(lambda k: 1.0 + k * _EPSILON / 4),
    st.floats(min_value=0.0, max_value=3 * _EPSILON),
    st.floats(min_value=0.0, max_value=100.0),
)


@st.composite
def churned_membership(draw, num_links, pool):
    """A membership built by random adds and removes over ``pool``."""
    membership = LinkMembership(num_links)
    routes = st.lists(st.sampled_from(pool), max_size=4, unique=True).map(tuple)
    steps = draw(st.integers(min_value=1, max_value=24))
    for _ in range(steps):
        if len(membership) and draw(st.integers(0, 3)) == 0:
            membership.remove(draw(st.sampled_from(sorted(membership.routes))))
            continue
        flow_id = draw(
            st.integers(min_value=0, max_value=999).filter(
                lambda f: f not in membership
            )
        )
        membership.add(flow_id, draw(routes))
    return membership


@st.composite
def fill_problems(draw):
    """Two class memberships over a few active links, and a residual."""
    num_links = draw(st.integers(min_value=16, max_value=256))
    pool = draw(
        st.lists(
            st.integers(min_value=0, max_value=num_links - 1),
            min_size=1,
            max_size=10,
            unique=True,
        )
    )
    classes = [draw(churned_membership(num_links, pool)) for _ in range(2)]
    # Links no flow crosses share one capacity; only the pool's matter
    # to the rates.
    residual = np.full(num_links, draw(CAPACITIES))
    for link in pool:
        residual[link] = draw(CAPACITIES)
    return classes, residual


def _snapshot(membership: LinkMembership) -> Tuple[object, ...]:
    return (
        list(membership.routes.items()),
        [(link, list(members)) for link, members in membership.link_members.items()],
        membership.counts.tolist(),
    )


def assert_same_fill(
    membership: LinkMembership, residual: np.ndarray, expected: np.ndarray
) -> Dict[int, float]:
    """Fill ``residual`` and the oracle's ``expected`` copy; compare both."""
    before = _snapshot(membership)
    ref = reference_fill(membership, expected)
    rates = water_fill_membership(membership, residual)
    assert rates == ref
    assert list(rates) == list(ref)
    assert np.array_equal(residual, expected)
    assert _snapshot(membership) == before
    return rates


@given(fill_problems())
@settings(max_examples=300, deadline=None)
def test_fill_matches_whole_fabric_reference(problem):
    # Two fills layered on one residual, SPQ's shape: the second class
    # fills what the first one left.
    classes, residual = problem
    expected = residual.copy()
    for membership in classes:
        assert_same_fill(membership, residual, expected)


def test_tied_links_freeze_in_link_id_order():
    # Link 5 gains its first member before link 2, so link_members
    # iterates 5 then 2; both tie at share 1.0, and the rates' key order
    # must follow link id (flow 20 on link 2 first), as the oracle's.
    membership = LinkMembership(8)
    membership.add(10, (5,))
    membership.add(20, (2,))
    assert list(membership.link_members) == [5, 2]
    residual = np.ones(8)
    rates = assert_same_fill(membership, residual, residual.copy())
    assert list(rates) == [20, 10]
