"""Unit tests for max-min fair water-filling."""

import numpy as np
import pytest

from repro.simulator.bandwidth.maxmin import (
    LinkMembership,
    allocate_maxmin,
    water_fill,
    water_fill_membership,
)


class TestBasics:
    def test_empty_input(self):
        assert allocate_maxmin({}, [10.0]) == {}

    def test_single_flow_takes_bottleneck(self):
        rates = allocate_maxmin({1: (0, 1)}, [10.0, 4.0])
        assert rates[1] == pytest.approx(4.0)

    def test_equal_split_on_shared_link(self):
        rates = allocate_maxmin({1: (0,), 2: (0,), 3: (0,)}, [9.0])
        assert all(rates[f] == pytest.approx(3.0) for f in (1, 2, 3))

    def test_classic_three_flow_example(self):
        # Flows: A on link0 only, B on link0+link1, C on link1 only.
        # link0 cap 10, link1 cap 4: B bottlenecked at 2 (link1 split),
        # then A gets the remaining 8 of link0, C gets 2.
        rates = allocate_maxmin(
            {1: (0,), 2: (0, 1), 3: (1,)}, [10.0, 4.0]
        )
        assert rates[2] == pytest.approx(2.0)
        assert rates[3] == pytest.approx(2.0)
        assert rates[1] == pytest.approx(8.0)

    def test_disjoint_flows_each_get_full_capacity(self):
        rates = allocate_maxmin({1: (0,), 2: (1,)}, [5.0, 7.0])
        assert rates[1] == pytest.approx(5.0)
        assert rates[2] == pytest.approx(7.0)


class TestMaxMinProperties:
    def test_no_link_oversubscribed(self):
        flows = {i: (i % 3, 3 + i % 2) for i in range(12)}
        caps = [6.0, 4.0, 9.0, 5.0, 7.0]
        rates = allocate_maxmin(flows, caps)
        usage = [0.0] * len(caps)
        for flow_id, route in flows.items():
            for link in route:
                usage[link] += rates[flow_id]
        for link, cap in enumerate(caps):
            assert usage[link] <= cap + 1e-6

    def test_work_conserving_on_bottlenecks(self):
        # Every flow crosses link 0; link 0 must be saturated.
        flows = {i: (0,) for i in range(5)}
        rates = allocate_maxmin(flows, [10.0])
        assert sum(rates.values()) == pytest.approx(10.0)

    def test_water_fill_mutates_residual(self):
        residual = np.array([10.0, 10.0])
        water_fill({1: (0,)}, residual)
        assert residual[0] == pytest.approx(0.0)
        assert residual[1] == pytest.approx(10.0)

    def test_layering_respects_prior_allocation(self):
        residual = np.array([10.0])
        first = water_fill({1: (0,)}, residual)
        second = water_fill({2: (0,)}, residual)
        assert first[1] == pytest.approx(10.0)
        assert second[2] == pytest.approx(0.0)

    def test_zero_capacity_gives_zero_rates(self):
        rates = allocate_maxmin({1: (0,), 2: (0,)}, [0.0])
        assert rates[1] == 0.0 and rates[2] == 0.0


class TestEdgeCases:
    def test_zero_capacity_link_does_not_block_others(self):
        # Flow 1 crosses the dead link, flow 2 a healthy one: the dead
        # link's zero share must freeze only its own flows.
        rates = allocate_maxmin({1: (0,), 2: (1,)}, [0.0, 8.0])
        assert rates[1] == pytest.approx(0.0)
        assert rates[2] == pytest.approx(8.0)

    def test_zero_capacity_on_shared_route(self):
        # A flow crossing one dead and one live link gets nothing, and the
        # live link's capacity goes to the other flow.
        rates = allocate_maxmin({1: (0, 1), 2: (1,)}, [0.0, 6.0])
        assert rates[1] == pytest.approx(0.0)
        assert rates[2] == pytest.approx(6.0)

    def test_empty_route_flow_gets_zero(self):
        # A flow traversing no links cannot be rate-limited by any
        # bottleneck; the guard assigns it zero instead of spinning.
        rates = allocate_maxmin({1: ()}, [5.0])
        assert rates == {1: 0.0}

    def test_empty_route_flow_among_normal_flows(self):
        rates = allocate_maxmin({1: (0,), 2: ()}, [5.0])
        assert rates[1] == pytest.approx(5.0)
        assert rates[2] == 0.0

    def test_list_residual_write_back_mutation(self):
        # Plain-list residuals are converted to an array internally and
        # written back via slice assignment so the caller sees the layered
        # allocation.
        residual = [10.0, 4.0]
        rates = water_fill({1: (0,), 2: (1,)}, residual)
        assert isinstance(residual, list)
        assert residual == [0.0, 0.0]
        assert rates[1] == pytest.approx(10.0)
        assert rates[2] == pytest.approx(4.0)

    def test_list_residual_layering(self):
        residual = [9.0]
        first = water_fill({1: (0,)}, residual)
        second = water_fill({2: (0,)}, residual)
        assert first[1] == pytest.approx(9.0)
        assert second[2] == pytest.approx(0.0)
        assert residual == [0.0]

    def test_list_residual_untouched_when_no_flows(self):
        residual = [3.0]
        assert water_fill({}, residual) == {}
        assert residual == [3.0]

    def test_defensive_no_contended_link_branch(self):
        # All flows have empty routes: every share is infinite, which
        # exercises the "remaining flows traverse no contended link"
        # guard.
        rates = allocate_maxmin({1: (), 2: ()}, [5.0])
        assert rates == {1: 0.0, 2: 0.0}

    def test_defensive_no_newly_frozen_branch(self):
        # Craft an inconsistent membership (counts claim a flow on link 0
        # but its member table is empty) to drive the "should be
        # impossible" spin guard: the survivors are frozen at the
        # bottleneck share instead of looping forever.  Link 0 keeps its
        # slot and an (empty) member entry, so the fill still counts it
        # as active.
        membership = LinkMembership(1)
        membership.add(1, (0,))
        membership.link_members[0].clear()
        rates = water_fill_membership(membership, np.array([6.0]))
        assert rates == {1: 6.0}
