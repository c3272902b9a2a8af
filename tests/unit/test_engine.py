"""Unit tests for the incremental allocation engine."""

import pytest

from repro.simulator.bandwidth.engine import AllocationState, EngineStats
from repro.simulator.bandwidth.maxmin import LinkMembership, allocate_maxmin
from repro.simulator.bandwidth.request import (
    AllocationMode,
    AllocationRequest,
    dispatch_allocation,
)

CAPS = [10.0, 4.0, 8.0]

ROUTES = {1: (0,), 2: (0, 1), 3: (1,), 4: (2,)}


def fresh_state(routes=ROUTES, caps=CAPS):
    state = AllocationState(caps)
    for flow_id, route in routes.items():
        state.add_flow(flow_id, route)
    return state


class TestLinkMembership:
    def test_add_and_remove_keep_counts_consistent(self):
        membership = LinkMembership(3)
        membership.add(1, (0, 1))
        membership.add(2, (1,))
        assert list(membership.counts) == [1, 2, 0]
        assert list(membership.link_members[1]) == [1, 2]
        membership.remove(1)
        assert list(membership.counts) == [0, 1, 0]
        assert 0 not in membership.link_members
        assert len(membership) == 1 and 2 in membership

    def test_duplicate_add_rejected(self):
        membership = LinkMembership(1)
        membership.add(1, (0,))
        with pytest.raises(ValueError):
            membership.add(1, (0,))

    def test_remove_unknown_flow_raises(self):
        with pytest.raises(KeyError):
            LinkMembership(1).remove(99)


class TestMaxminPath:
    def test_matches_legacy_allocation(self):
        state = fresh_state()
        rates = state.allocate(AllocationRequest(mode=AllocationMode.MAXMIN))
        assert rates == allocate_maxmin(ROUTES, CAPS)

    def test_cache_hit_on_unchanged_state(self):
        state = fresh_state()
        request = AllocationRequest(mode=AllocationMode.MAXMIN)
        first = state.allocate(request)
        second = state.allocate(AllocationRequest(mode=AllocationMode.MAXMIN))
        assert second is first
        assert state.stats.cache_hits == 1
        assert state.stats.allocations == 2

    def test_add_flow_invalidates_cache(self):
        state = fresh_state()
        request = AllocationRequest(mode=AllocationMode.MAXMIN)
        state.allocate(request)
        state.add_flow(9, (2,))
        rates = state.allocate(AllocationRequest(mode=AllocationMode.MAXMIN))
        assert state.stats.cache_hits == 0
        expected = dict(ROUTES)
        expected[9] = (2,)
        assert rates == allocate_maxmin(expected, CAPS)

    def test_remove_flow_invalidates_cache(self):
        state = fresh_state()
        state.allocate(AllocationRequest(mode=AllocationMode.MAXMIN))
        state.remove_flow(2)
        rates = state.allocate(AllocationRequest(mode=AllocationMode.MAXMIN))
        remaining = {f: r for f, r in ROUTES.items() if f != 2}
        assert rates == allocate_maxmin(remaining, CAPS)

    def test_no_full_rebuilds_after_setup(self):
        state = fresh_state()
        for _ in range(5):
            state.allocate(AllocationRequest(mode=AllocationMode.MAXMIN))
            state.add_flow(100, (1,))
            state.allocate(AllocationRequest(mode=AllocationMode.MAXMIN))
            state.remove_flow(100)
        assert state.stats.full_rebuilds == 0
        assert state.stats.delta_updates == len(ROUTES) + 10


def _request(mode, priorities, **kwargs):
    return AllocationRequest(mode=mode, priorities=dict(priorities), **kwargs)


PRIORITIES = {1: 0, 2: 1, 3: 0, 4: 2}


class TestPriorityModes:
    @pytest.mark.parametrize("mode", [AllocationMode.SPQ, AllocationMode.WRR])
    def test_matches_legacy_dispatch(self, mode):
        state = fresh_state()
        request = _request(mode, PRIORITIES)
        rates = state.allocate(request)
        expected = dispatch_allocation(_request(mode, PRIORITIES), ROUTES, CAPS)
        assert rates == pytest.approx(expected, abs=1e-12)

    @pytest.mark.parametrize("mode", [AllocationMode.SPQ, AllocationMode.WRR])
    def test_priority_change_recomputes(self, mode):
        state = fresh_state()
        state.allocate(_request(mode, PRIORITIES))
        moved = {**PRIORITIES, 2: 3}
        rates = state.allocate(_request(mode, moved))
        expected = dispatch_allocation(_request(mode, moved), ROUTES, CAPS)
        assert rates == pytest.approx(expected, abs=1e-12)
        # The move was applied incrementally, not via a second rebuild.
        assert state.stats.full_rebuilds == 1

    def test_unchanged_priorities_cache_hit(self):
        state = fresh_state()
        first = state.allocate(_request(AllocationMode.SPQ, PRIORITIES))
        second = state.allocate(_request(AllocationMode.SPQ, PRIORITIES))
        assert second is first
        assert state.stats.cache_hits == 1

    def test_empty_delta_hint_is_cache_hit(self):
        state = fresh_state()
        state.allocate(_request(AllocationMode.SPQ, PRIORITIES))
        # Different dict identity, but the policy vouches nothing changed.
        rates = state.allocate(
            _request(AllocationMode.SPQ, PRIORITIES), priority_delta=frozenset()
        )
        assert state.stats.cache_hits == 1
        assert rates == state.allocate(_request(AllocationMode.SPQ, PRIORITIES))

    def test_delta_hint_matches_full_diff(self):
        hinted = fresh_state()
        diffed = fresh_state()
        hinted.allocate(
            _request(AllocationMode.WRR, PRIORITIES),
            priority_delta=frozenset(PRIORITIES),
        )
        diffed.allocate(_request(AllocationMode.WRR, PRIORITIES))
        moved = {**PRIORITIES, 3: 2}
        via_hint = hinted.allocate(
            _request(AllocationMode.WRR, moved), priority_delta=frozenset({3})
        )
        via_diff = diffed.allocate(_request(AllocationMode.WRR, moved))
        assert via_hint == pytest.approx(via_diff, abs=1e-12)

    def test_delta_hint_with_finished_flow_is_ignored(self):
        state = fresh_state()
        state.allocate(_request(AllocationMode.SPQ, PRIORITIES))
        state.remove_flow(4)
        remaining = {f: c for f, c in PRIORITIES.items() if f != 4}
        rates = state.allocate(
            _request(AllocationMode.SPQ, remaining),
            priority_delta=frozenset({4}),  # stale report: flow 4 finished
        )
        routes = {f: r for f, r in ROUTES.items() if f != 4}
        expected = dispatch_allocation(
            _request(AllocationMode.SPQ, remaining), routes, CAPS
        )
        assert rates == pytest.approx(expected, abs=1e-12)

    def test_num_classes_change_forces_rebuild(self):
        state = fresh_state()
        state.allocate(_request(AllocationMode.SPQ, PRIORITIES, num_classes=4))
        assert state.stats.full_rebuilds == 1
        state.allocate(_request(AllocationMode.SPQ, PRIORITIES, num_classes=8))
        assert state.stats.full_rebuilds == 2

    def test_mode_switch_invalidates_rates_only(self):
        state = fresh_state()
        spq = state.allocate(_request(AllocationMode.SPQ, PRIORITIES))
        wrr = state.allocate(_request(AllocationMode.WRR, PRIORITIES))
        assert state.stats.full_rebuilds == 1  # class layout reused
        assert wrr != spq

    def test_out_of_range_classes_clamp_like_legacy(self):
        wild = {1: -3, 2: 99, 3: 1, 4: 2}
        state = fresh_state()
        rates = state.allocate(_request(AllocationMode.SPQ, wild))
        expected = dispatch_allocation(_request(AllocationMode.SPQ, wild), ROUTES, CAPS)
        assert rates == pytest.approx(expected, abs=1e-12)

    def test_flow_added_after_class_build_lands_in_right_class(self):
        state = fresh_state()
        state.allocate(_request(AllocationMode.SPQ, PRIORITIES))
        state.add_flow(9, (2,))
        with_new = {**PRIORITIES, 9: 0}
        rates = state.allocate(_request(AllocationMode.SPQ, with_new))
        routes = {**ROUTES, 9: (2,)}
        expected = dispatch_allocation(
            _request(AllocationMode.SPQ, with_new), routes, CAPS
        )
        assert rates == pytest.approx(expected, abs=1e-12)


class TestEngineStats:
    def test_snapshot_is_independent_copy(self):
        stats = EngineStats(allocations=3, cache_hits=1)
        snap = stats.snapshot()
        stats.allocations = 99
        assert snap.allocations == 3
        assert snap.cache_hits == 1

    def test_counters_accumulate(self):
        state = fresh_state()
        assert state.stats.delta_updates == len(ROUTES)
        state.allocate(_request(AllocationMode.WRR, PRIORITIES))
        state.allocate(_request(AllocationMode.WRR, PRIORITIES))
        state.remove_flow(1)
        state.allocate(_request(AllocationMode.WRR, {2: 1, 3: 0, 4: 2}))
        assert state.stats.allocations == 3
        assert state.stats.cache_hits == 1
        assert state.stats.full_rebuilds == 1
        assert state.stats.delta_updates == len(ROUTES) + 1
