"""Unit tests for SPQ and WRR-emulated-SPQ allocation."""

import pytest

from repro.simulator.bandwidth.spq import allocate_spq, group_by_class
from repro.simulator.bandwidth.wrr import (
    allocate_wrr,
    class_loads_from_counts,
    spq_waiting_times,
    wrr_weights,
)


class TestGrouping:
    def test_flows_split_by_class(self):
        groups = group_by_class(
            {1: (0,), 2: (0,), 3: (1,)}, {1: 0, 2: 1, 3: 1}, 2
        )
        assert set(groups[0]) == {1}
        assert set(groups[1]) == {2, 3}

    def test_missing_priority_falls_to_lowest(self):
        groups = group_by_class({1: (0,)}, {}, 4)
        assert set(groups[3]) == {1}

    def test_out_of_range_classes_clamp(self):
        groups = group_by_class({1: (0,), 2: (0,)}, {1: -3, 2: 99}, 4)
        assert set(groups[0]) == {1}
        assert set(groups[3]) == {2}


class TestSpq:
    def test_high_class_preempts_low(self):
        rates = allocate_spq(
            {1: (0,), 2: (0,)}, {1: 0, 2: 1}, [10.0], num_classes=2
        )
        assert rates[1] == pytest.approx(10.0)
        assert rates[2] == pytest.approx(0.0)

    def test_low_class_gets_leftovers(self):
        # High-class flow bottlenecked elsewhere leaves room on link 0.
        rates = allocate_spq(
            {1: (0, 1), 2: (0,)}, {1: 0, 2: 1}, [10.0, 4.0], num_classes=2
        )
        assert rates[1] == pytest.approx(4.0)
        assert rates[2] == pytest.approx(6.0)

    def test_within_class_is_maxmin(self):
        rates = allocate_spq(
            {1: (0,), 2: (0,), 3: (0,)}, {1: 0, 2: 0, 3: 1}, [9.0], 2
        )
        assert rates[1] == pytest.approx(4.5)
        assert rates[2] == pytest.approx(4.5)
        assert rates[3] == pytest.approx(0.0)


class TestWrrWeights:
    def test_loads_scale_to_utilization(self):
        loads = class_loads_from_counts([3, 1], utilization=0.8)
        assert sum(loads) == pytest.approx(0.8)
        assert loads[0] == pytest.approx(0.6)

    def test_waiting_times_increase_with_class(self):
        waits = spq_waiting_times([0.3, 0.3, 0.3])
        assert waits[0] < waits[1] < waits[2]

    def test_inverse_wait_weights_descend(self):
        weights = wrr_weights([0.3, 0.3, 0.3], mode="inverse_wait")
        assert weights[0] > weights[1] > weights[2]
        assert sum(weights) == pytest.approx(1.0)

    def test_literal_weights_ascend(self):
        weights = wrr_weights([0.3, 0.3, 0.3], mode="literal")
        assert weights[0] < weights[2]

    def test_unknown_mode_rejected(self):
        with pytest.raises(ValueError):
            wrr_weights([0.5], mode="nope")

    def test_zero_loads_give_uniform_weights(self):
        weights = wrr_weights([0.0, 0.0])
        assert weights == pytest.approx([0.5, 0.5])


    def test_weights_add_left_to_right(self):
        # Builtin sum() compensates rounding from Python 3.12 on, which
        # moves these weights in the last digits; every version must
        # produce the same ones.
        weights = wrr_weights(class_loads_from_counts([0, 0, 3, 33]))
        assert weights == [
            0.3314001657000828,
            0.3314001657000828,
            0.30654515327257664,
            0.030654515327257686,
        ]


class TestWrrAllocation:
    def test_no_starvation(self):
        """Unlike SPQ, every class keeps a positive rate on a shared link."""
        rates = allocate_wrr(
            {1: (0,), 2: (0,)}, {1: 0, 2: 3}, [10.0], num_classes=4
        )
        assert rates[1] > rates[2] > 0.0

    def test_work_conserving(self):
        rates = allocate_wrr(
            {1: (0,), 2: (0,)}, {1: 0, 2: 3}, [10.0], num_classes=4
        )
        assert sum(rates.values()) == pytest.approx(10.0)

    def test_single_class_equals_maxmin(self):
        rates = allocate_wrr(
            {1: (0,), 2: (0,)}, {1: 0, 2: 0}, [10.0], num_classes=4
        )
        assert rates[1] == pytest.approx(5.0)
        assert rates[2] == pytest.approx(5.0)

    def test_lone_flow_gets_full_link(self):
        """Work conservation: an unopposed low-class flow is not capped at
        its WRR share."""
        rates = allocate_wrr({1: (0,)}, {1: 3}, [10.0], num_classes=4)
        assert rates[1] == pytest.approx(10.0)

    def test_respects_capacity(self):
        flows = {i: (0,) for i in range(8)}
        priorities = {i: i % 4 for i in range(8)}
        rates = allocate_wrr(flows, priorities, [10.0], num_classes=4)
        assert sum(rates.values()) <= 10.0 + 1e-6
