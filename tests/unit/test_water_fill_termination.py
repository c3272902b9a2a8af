"""Water-filling termination and drift audit (the hot-loop bugfix sweep).

The progressive-filling loop must terminate for every input the runtime
can produce — zero-capacity (fault-revoked) links, capacities within
``_EPSILON`` of zero after layered subtraction drift, empty routes — and
must never leave negative residual capacity behind.  All near-zero
comparisons go through the blessed helpers ``share_at_most`` /
``capacity_exhausted`` so the tolerance is defined in exactly one place.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.simulator.bandwidth.maxmin import (
    _EPSILON,
    LinkMembership,
    capacity_exhausted,
    share_at_most,
    water_fill,
    water_fill_membership,
)


def _membership(flow_routes, num_links):
    return LinkMembership.from_routes(flow_routes, num_links)


#: Disjoint single-link flows :func:`_widen` pads a flow set with.
_PADDING_FLOWS = 12


def _widen(flow_routes, num_links, start=10_000):
    """Pad a flow set with flows that each own one extra link."""
    widened = dict(flow_routes)
    extra_links = num_links
    for i in range(_PADDING_FLOWS):
        widened[start + i] = (extra_links + i,)
    return widened, num_links + _PADDING_FLOWS


class TestBlessedHelpers:
    def test_capacity_exhausted_at_zero_and_below_epsilon(self):
        assert capacity_exhausted(0.0)
        assert capacity_exhausted(_EPSILON / 2)
        assert capacity_exhausted(-1e-12)
        assert not capacity_exhausted(10.0 * _EPSILON)

    def test_share_at_most_ties_within_epsilon(self):
        shares = np.array([1.0, 1.0 + _EPSILON / 2, 1.0 + 10 * _EPSILON, 2.0])
        mask = share_at_most(shares, 1.0)
        assert mask.tolist() == [True, True, False, False]


class TestTermination:
    def test_zero_capacity_links_freeze_flows_at_zero(self):
        rates = water_fill({1: (0,), 2: (0,)}, [0.0])
        assert rates == {1: 0.0, 2: 0.0}

    def test_capacity_within_epsilon_of_zero_terminates(self):
        caps = [_EPSILON / 3, 5.0]
        rates = water_fill({1: (0, 1), 2: (1,)}, caps)
        assert all(rate >= 0.0 for rate in rates.values())
        # The exhausted link bottlenecks flow 1 at (effectively) zero.
        assert rates[1] == pytest.approx(0.0, abs=_EPSILON)

    def test_empty_route_flows_get_zero_not_livelock(self):
        rates = water_fill({1: (), 2: (0,)}, [4.0])
        assert rates[1] == 0.0
        assert rates[2] == pytest.approx(4.0)

    def test_all_empty_routes(self):
        rates = water_fill({1: (), 2: ()}, [4.0])
        assert rates == {1: 0.0, 2: 0.0}

    @pytest.mark.parametrize("widen", [False, True])
    def test_mixed_zero_and_live_links(self, widen):
        flows = {1: (0,), 2: (0, 1), 3: (1,), 4: (2,)}
        num_links = 4
        if widen:
            # Flows on links of their own must not perturb the others.
            flows, num_links = _widen(flows, num_links)
        caps = [0.0, 6.0, 9.0] + [1.0] * (num_links - 3)
        rates = water_fill(flows, caps)
        assert rates[1] == 0.0 and rates[2] == 0.0
        assert rates[3] == pytest.approx(6.0)
        assert rates[4] == pytest.approx(9.0)


class TestDriftAudit:
    def _layered_residual(self, num_flows):
        """Layer allocations the way WRR does and return the residual."""
        num_links = 5
        flow_routes = {
            i: (i % num_links, (i * 3 + 1) % num_links) for i in range(num_flows)
        }
        residual = np.array([3.0, 1.0, 7.0, 0.3, 1e-9])
        layer_one = _membership(
            {f: r for f, r in flow_routes.items() if f % 2 == 0}, num_links
        )
        layer_two = _membership(
            {f: r for f, r in flow_routes.items() if f % 2 == 1}, num_links
        )
        water_fill_membership(layer_one, residual)
        water_fill_membership(layer_two, residual)
        return residual

    @pytest.mark.parametrize("num_flows", [6, 48])
    def test_layered_fills_never_leave_negative_residual(self, num_flows):
        residual = self._layered_residual(num_flows)
        assert np.all(residual >= 0.0)

    @pytest.mark.parametrize("num_flows", [7, 48])
    def test_no_link_oversubscribed_beyond_epsilon(self, num_flows):
        num_links = 6
        flow_routes = {
            i: tuple(sorted({i % num_links, (i * 7 + 2) % num_links}))
            for i in range(num_flows)
        }
        caps = [2.0, 0.0, 5.0, _EPSILON / 2, 11.0, 0.125]
        nominal = np.asarray(caps)  # water_fill mutates caps (by contract)
        rates = water_fill(flow_routes, caps)
        usage = np.zeros(num_links)
        for flow_id, route in flow_routes.items():
            assert rates[flow_id] >= 0.0
            for link in route:
                usage[link] += rates[flow_id]
        # Per-round ties freeze within _EPSILON of the bottleneck, so the
        # total overshoot is bounded by rounds * _EPSILON (<< 1e-6).
        assert np.all(usage <= nominal + 1e-6)
        # The mutated residual is exactly nominal minus usage, clamped:
        # the drift audit proper.
        assert np.all(np.asarray(caps) >= 0.0)
