"""Link slots under the engine's churn: add, remove, reroute, class moves.

Every :class:`LinkMembership` numbers its active links with dense slots
and keeps each flow's route as slots.  The engine mutates its all-flows
membership and its per-class ones by flow deltas; after every delta the
slots of each must still index exactly the active links, and an audit
against a from-scratch rebuild must come out clean.
"""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.jobs.flow import Flow
from repro.simulator.bandwidth.engine import AllocationState
from repro.simulator.bandwidth.maxmin import LinkMembership
from repro.simulator.bandwidth.request import AllocationMode, AllocationRequest
from repro.simulator.invariants import InvariantChecker, slot_problem

NUM_LINKS = 12
CAPS = [10.0] * NUM_LINKS
ROUTES = st.lists(
    st.integers(min_value=0, max_value=NUM_LINKS - 1), max_size=4, unique=True
).map(tuple)


def memberships(engine: AllocationState):
    return [engine.all_flows, *(engine.class_members or ())]


def active_flows(engine: AllocationState):
    flows = []
    for flow_id, route in engine.all_flows.routes.items():
        flow = Flow(flow_id=flow_id, coflow_id=0, src=0, dst=1, size_bytes=1.0)
        flow.route = route
        flows.append(flow)
    return flows


@given(st.data())
@settings(max_examples=200, deadline=None)
def test_slots_track_engine_churn(data):
    engine = AllocationState(CAPS)
    checker = InvariantChecker(CAPS, strict=True)
    next_id = 0
    for step in range(data.draw(st.integers(min_value=1, max_value=40))):
        live = list(engine.all_flows.routes)
        op = data.draw(st.integers(0, 4)) if live else 0
        if op <= 1:
            engine.add_flow(next_id, data.draw(ROUTES))
            next_id += 1
        elif op == 2:
            engine.remove_flow(data.draw(st.sampled_from(live)))
        elif op == 3:
            engine.update_route(data.draw(st.sampled_from(live)), data.draw(ROUTES))
        else:
            # A classed request moves flows between class memberships.
            mode = data.draw(
                st.sampled_from([AllocationMode.SPQ, AllocationMode.WRR])
            )
            priorities = {
                flow_id: data.draw(st.integers(0, 3)) for flow_id in live
            }
            request = AllocationRequest(
                mode=mode, priorities=priorities, num_classes=4
            )
            engine.allocate(request)
            checker.audit_engine(engine, active_flows(engine), request, now=step)
        for membership in memberships(engine):
            assert slot_problem(membership) is None


def test_emptied_link_hands_its_slot_to_the_last_link():
    membership = LinkMembership(8)
    membership.add(1, (5, 2))
    membership.add(2, (2, 7))
    assert membership.slot_links == [5, 2, 7]
    membership.remove(1)
    # Link 5 emptied: link 7 moved from slot 2 into slot 0, and flow 2's
    # route slots followed it.
    assert membership.slot_links == [7, 2]
    assert membership.slot_of == {7: 0, 2: 1}
    assert membership.route_slots == {2: (1, 0)}
    assert slot_problem(membership) is None


def test_removed_flow_empties_the_link_that_moves():
    membership = LinkMembership(8)
    membership.add(1, (3,))
    membership.add(2, (4, 5))
    # Removing flow 2 empties link 4 first; link 5, in the last slot,
    # moves into slot 1 while it still lists flow 2, then empties too.
    membership.remove(2)
    assert membership.slot_links == [3]
    assert membership.slot_of == {3: 0}
    assert membership.route_slots == {1: (0,)}
    assert slot_problem(membership) is None


def test_audit_reports_a_corrupt_slot():
    engine = AllocationState(CAPS)
    engine.add_flow(1, (0, 1))
    engine.add_flow(2, (1, 2))
    request = AllocationRequest(mode=AllocationMode.MAXMIN)
    engine.allocate(request)
    engine.all_flows.slot_links.reverse()
    checker = InvariantChecker(CAPS)
    checker.audit_engine(engine, active_flows(engine), request, now=1.0)
    report = checker.report()
    assert report.counts[InvariantChecker.CACHE_COHERENCE] == 1
    assert "all-flows membership slots" in report.examples[0].message
