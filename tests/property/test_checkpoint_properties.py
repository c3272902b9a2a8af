"""Property-based pickle round-trips of the checkpointed components.

The checkpoint contract is *bit-identical continuation*: a checkpoint
pickles the simulation whole, and every component it holds must, once
unpickled, behave exactly like the original from that point on.  These
properties drive randomized histories through the event queue (including
same-timestamp batches half-drained at the round-trip) and the
incremental allocation engine, pickle the object mid-history, and
require the copy to reproduce the original's observable behaviour
event-for-event and rate-for-rate.
"""

from __future__ import annotations

import pickle

from hypothesis import given, settings, strategies as st

from repro.simulator.bandwidth.engine import AllocationState
from repro.simulator.bandwidth.request import AllocationMode, AllocationRequest
from repro.simulator.events import EventKind, EventQueue

#: Coarse timestamp grid so draws collide on exact float timestamps, where
#: only ``(kind, seq)`` decides the order.
TIME_GRID = [0.0, 0.25, 0.25, 0.5, 0.5, 0.5, 1.0, 1.5, 1.5, 2.0, 3.0]


@st.composite
def queue_histories(draw):
    """Ops that interleave pushes and pops.

    Pushes respect the watermark by construction: each drawn timestamp
    is offset by the running maximum popped time, so histories never
    trip the causality guard and every draw is a valid history.
    """
    return draw(
        st.lists(
            st.tuples(
                st.sampled_from(["push", "pop"]),
                st.sampled_from(TIME_GRID),
                st.sampled_from(list(EventKind)),
            ),
            min_size=1,
            max_size=40,
        )
    )


def apply_ops(queue, ops, payload_prefix):
    """Drive a queue through ops; returns the observed pop sequence."""
    popped = []
    for index, (op, offset, kind) in enumerate(ops):
        if op == "push":
            base = max(queue.watermark, 0.0)  # watermark is -inf pre-pop
            queue.push(base + offset, kind, payload=(payload_prefix, index))
        elif len(queue):
            event = queue.pop()
            popped.append((event.time, int(event.kind), event.seq, event.payload))
    return popped


def drain(queue):
    out = []
    while len(queue):
        event = queue.pop()
        out.append((event.time, int(event.kind), event.seq, event.payload))
    return out


class TestEventQueueRoundTrip:
    @given(queue_histories())
    @settings(max_examples=150, deadline=None)
    def test_snapshot_restores_identical_drain_order(self, ops):
        """Pickle mid-history; the restored queue drains identically."""
        split = len(ops) // 2
        original = EventQueue()
        apply_ops(original, ops[:split], "pre")

        restored = pickle.loads(pickle.dumps(original))

        # Both queues then see the same tail of the history...
        tail_original = apply_ops(original, ops[split:], "post")
        tail_restored = apply_ops(restored, ops[split:], "post")
        assert tail_restored == tail_original
        # ...and drain the same remaining events in the same total order.
        assert drain(restored) == drain(original)
        assert restored.watermark == original.watermark

    @given(queue_histories())
    @settings(max_examples=100, deadline=None)
    def test_sequence_counter_continues_after_restore(self, ops):
        """Post-restore pushes continue the original seq numbering."""
        original = EventQueue()
        apply_ops(original, ops, "pre")

        restored = pickle.loads(pickle.dumps(original))
        base = max(original.watermark, 0.0)
        assert (
            restored.push(base + 1.0, EventKind.SCHEDULER_UPDATE).seq
            == original.push(base + 1.0, EventKind.SCHEDULER_UPDATE).seq
        )

    def test_same_timestamp_batch_straddling_snapshot(self):
        """A half-drained same-timestamp batch survives the round-trip."""
        queue = EventQueue()
        for _ in range(4):
            queue.push(1.0, EventKind.JOB_ARRIVAL)
        queue.push(2.0, EventKind.SCHEDULER_UPDATE)
        queue.pop()  # two of the four t=1.0 events are now drained
        queue.pop()

        restored = pickle.loads(pickle.dumps(queue))
        # Pushing back into the half-drained timestamp must slot among the
        # remaining events exactly as it would on the original.
        queue.push(1.0, EventKind.FLOW_COMPLETION)
        restored.push(1.0, EventKind.FLOW_COMPLETION)
        assert drain(restored) == drain(queue)


@st.composite
def engine_histories(draw):
    """Flow add/remove/allocate histories over a small fixed fabric."""
    ops = []
    alive = set()
    next_id = 0
    for _ in range(draw(st.integers(min_value=2, max_value=25))):
        choice = draw(st.sampled_from(["add", "remove", "allocate"]))
        if choice == "add":
            route = tuple(
                sorted(
                    draw(
                        st.sets(
                            st.integers(min_value=0, max_value=3),
                            min_size=1,
                            max_size=2,
                        )
                    )
                )
            )
            ops.append(("add", next_id, route))
            alive.add(next_id)
            next_id += 1
        elif choice == "remove" and alive:
            victim = draw(st.sampled_from(sorted(alive)))
            ops.append(("remove", victim, None))
            alive.discard(victim)
        else:
            priorities = {
                flow: draw(st.integers(min_value=0, max_value=3))
                for flow in sorted(alive)
            }
            ops.append(("allocate", None, priorities))
    return ops


def apply_engine_ops(state, ops):
    """Drive an AllocationState; returns every allocation's rate vector."""
    rates = []
    for op, flow, arg in ops:
        if op == "add":
            state.add_flow(flow, arg)
        elif op == "remove":
            state.remove_flow(flow)
        else:
            request = AllocationRequest(
                mode=AllocationMode.SPQ, priorities=dict(arg), num_classes=4
            )
            rates.append(dict(state.allocate(request, priority_delta=None)))
    return rates


class TestAllocationStateRoundTrip:
    @given(engine_histories())
    @settings(max_examples=100, deadline=None)
    def test_restored_engine_allocates_identically(self, ops):
        split = len(ops) // 2
        capacities = [10.0, 10.0, 5.0, 20.0]
        original = AllocationState(capacities)
        apply_engine_ops(original, ops[:split])

        restored = pickle.loads(pickle.dumps(original))

        tail_original = apply_engine_ops(original, ops[split:])
        tail_restored = apply_engine_ops(restored, ops[split:])
        assert tail_restored == tail_original
        assert (
            restored.stats.cache_hits,
            restored.stats.delta_updates,
            restored.stats.full_rebuilds,
        ) == (
            original.stats.cache_hits,
            original.stats.delta_updates,
            original.stats.full_rebuilds,
        )
