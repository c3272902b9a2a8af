"""Event queue: total order, push-time validation, timecmp-consistent draining.

Three regressions are locked in here:

* the batch-horizon test (``has_event_within``) applies the same float
  time tolerance as the push-side watermark guard, so a same-instant
  batch straddling the watermark can never be split into two batches
  (each would pay a redundant reallocation);
* a push may not land behind the pop watermark;
* a push may not carry a negative or non-finite timestamp: a NaN compares
  false against everything, so it used to slip past the guards and break
  the heap's ``(time, kind, seq)`` order silently.
"""

from __future__ import annotations

import math

import pytest

from repro.errors import SimulationError
from repro.simulator.events import EventKind, EventQueue
from repro.simulator.timecmp import time_resolution


class TestSharedSemantics:
    def test_push_pop_orders_by_time_kind_seq(self):
        queue = EventQueue()
        queue.push(2.0, EventKind.FLOW_COMPLETION)
        queue.push(1.0, EventKind.SCHEDULER_UPDATE)
        queue.push(1.0, EventKind.JOB_ARRIVAL)
        queue.push(1.0, EventKind.JOB_ARRIVAL)
        popped = [(e.time, e.kind, e.seq) for e in (queue.pop() for _ in range(4))]
        assert popped == sorted(popped)
        assert popped[0][1] is EventKind.JOB_ARRIVAL

    def test_push_into_draining_timestamp(self):
        """A push at the timestamp being drained slots into (kind, seq)
        order among the events still queued there."""
        queue = EventQueue()
        queue.push(3.0, EventKind.SCHEDULER_UPDATE)
        queue.push(3.0, EventKind.FAULT)
        queue.push(3.0, EventKind.REPAIR)
        assert queue.pop().kind is EventKind.SCHEDULER_UPDATE
        queue.push(3.0, EventKind.JOB_ARRIVAL)
        kinds = [queue.pop().kind for _ in range(len(queue))]
        assert kinds == [EventKind.JOB_ARRIVAL, EventKind.FAULT, EventKind.REPAIR]

    def test_watermark_guard(self):
        queue = EventQueue()
        queue.push(5.0, EventKind.JOB_ARRIVAL)
        queue.pop()
        assert queue.watermark == 5.0
        queue.push(5.0, EventKind.SCHEDULER_UPDATE)  # same instant: legal
        with pytest.raises(SimulationError, match="behind the pop watermark"):
            queue.push(4.0, EventKind.FLOW_COMPLETION)

    def test_negative_time_rejected(self):
        queue = EventQueue()
        with pytest.raises(SimulationError, match="negative time"):
            queue.push(-0.5, EventKind.JOB_ARRIVAL)

    def test_pop_empty_raises(self):
        queue = EventQueue()
        with pytest.raises(SimulationError, match="empty event queue"):
            queue.pop()

    def test_len_and_bool(self):
        queue = EventQueue()
        assert not queue and len(queue) == 0
        queue.push(1.0, EventKind.JOB_ARRIVAL)
        assert queue and len(queue) == 1
        queue.pop()
        assert not queue

    def test_peek_time(self):
        queue = EventQueue()
        assert queue.peek_time() is None
        queue.push(2.0, EventKind.JOB_ARRIVAL)
        queue.push(1.0, EventKind.JOB_ARRIVAL)
        assert queue.peek_time() == 1.0
        queue.pop()
        assert queue.peek_time() == 2.0
        queue.pop()
        assert queue.peek_time() is None

    def test_has_event_within_empty(self):
        queue = EventQueue()
        assert not queue.has_event_within(math.inf)

    def test_has_event_within_plain_cases(self):
        queue = EventQueue()
        queue.push(10.0, EventKind.JOB_ARRIVAL)
        assert queue.has_event_within(10.0)
        assert queue.has_event_within(11.0)
        assert not queue.has_event_within(9.0)

    def test_same_instant_batch_straddling_watermark_not_split(self):
        """The S2 regression: push tolerates float-resolution scheduling
        around the watermark, so the drain horizon must tolerate the same
        band — a raw ``<=`` here used to split the batch in two."""
        batch_time = 1000.0
        tick = time_resolution(batch_time)
        queue = EventQueue()
        queue.push(batch_time, EventKind.JOB_ARRIVAL)
        queue.pop()  # watermark = batch_time; runtime horizon below
        horizon = batch_time + tick
        # An event one resolution step past the horizon still denotes the
        # same simulation instant (push would equally have accepted it one
        # step *behind* the watermark).
        queue.push(batch_time + 2.0 * tick, EventKind.FLOW_COMPLETION)
        assert queue.has_event_within(horizon)

    def test_event_beyond_resolution_stays_out_of_batch(self):
        batch_time = 1000.0
        tick = time_resolution(batch_time)
        queue = EventQueue()
        queue.push(batch_time + 10.0 * tick, EventKind.FLOW_COMPLETION)
        assert not queue.has_event_within(batch_time + tick)


class TestPushTimeValidation:
    @pytest.mark.parametrize(
        "time,message",
        [
            (math.nan, "non-finite time nan"),
            (math.inf, "non-finite time inf"),
            (-1.0, "negative time -1.0"),
        ],
        ids=["nan", "inf", "negative"],
    )
    def test_bad_time_rejected(self, time, message):
        queue = EventQueue()
        with pytest.raises(SimulationError, match=message):
            queue.push(time, EventKind.JOB_ARRIVAL)
        # The rejected push leaves no trace: no event, no sequence number.
        assert len(queue) == 0
        assert queue.push(0.0, EventKind.JOB_ARRIVAL).seq == 0

    def test_nan_cannot_break_the_total_order(self):
        """Pushing nan, 1.0, 0.5 used to pop as [nan, 0.5, 1.0]."""
        queue = EventQueue()
        with pytest.raises(SimulationError, match="non-finite"):
            queue.push(math.nan, EventKind.JOB_ARRIVAL)
        queue.push(1.0, EventKind.JOB_ARRIVAL)
        queue.push(0.5, EventKind.JOB_ARRIVAL)
        assert [queue.pop().time for _ in range(2)] == [0.5, 1.0]

    def test_zero_and_large_finite_times_accepted(self):
        queue = EventQueue()
        queue.push(0.0, EventKind.JOB_ARRIVAL)
        queue.push(-0.0, EventKind.JOB_ARRIVAL)
        queue.push(1e300, EventKind.JOB_ARRIVAL)
        assert len(queue) == 3
