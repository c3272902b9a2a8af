"""Deterministic event queue for the flow-level simulator.

Events are ordered by ``(time, priority, sequence)``.  The sequence number
makes ordering total and deterministic: two events at the same timestamp pop
in the order they were scheduled.  ``priority`` lets structurally different
events at the same instant be ordered (e.g. arrivals before reallocation).

The queue also enforces causality at the source: a **monotonic watermark**
tracks the latest popped timestamp, and scheduling an event earlier than
the watermark (beyond float time resolution) raises
:class:`~repro.errors.SimulationError` immediately — at the buggy ``push``
call site — instead of surfacing later as a backwards clock jump.  Negative
and non-finite timestamps are rejected the same way: a NaN would compare
false against everything and silently break the heap's total order.

Every float-time comparison — the push-side watermark guard *and* the
batch-horizon test :meth:`EventQueue.has_event_within` — goes through the
blessed helpers of :mod:`repro.simulator.timecmp`, so the tolerance that
lets same-instant events batch together is exactly the tolerance the
watermark applies to late pushes (they used to disagree: raw ``<=`` on the
horizon could split a same-timestamp batch straddling the watermark into
two batches, each paying a reallocation).
"""

from __future__ import annotations

import enum
import heapq
import math
from typing import Any, List, Optional, Tuple

from repro.errors import SimulationError
from repro.simulator.hotpath import hot_path
from repro.simulator.timecmp import time_before, times_close
from repro.simulator.units import Seconds


class EventKind(enum.IntEnum):
    """Kinds of events, in intra-timestamp processing order.

    Values are append-only: fault kinds were added after the original
    three, keeping every zero-fault event ordering byte-identical to
    builds that predate fault injection.
    """

    JOB_ARRIVAL = 0
    FLOW_COMPLETION = 1
    SCHEDULER_UPDATE = 2
    FAULT = 3
    REPAIR = 4


class Event:
    """A scheduled simulator event.

    A ``__slots__`` class (historically a frozen dataclass): one Event is
    allocated per scheduled occurrence, so construction cost and memory
    footprint sit directly on the event-loop hot path.  Treat instances as
    immutable — the queue's ordering invariants assume ``time``/``kind``/
    ``seq`` never change after scheduling.
    """

    __slots__ = ("time", "kind", "seq", "payload", "epoch")

    def __init__(
        self,
        time: Seconds,
        kind: EventKind,
        seq: int,
        payload: Any = None,
        epoch: int = 0,
    ) -> None:
        self.time = time
        self.kind = kind
        self.seq = seq
        self.payload = payload
        #: Allocation epoch at scheduling time; stale completion events
        #: (scheduled under an old rate assignment) are skipped on pop.
        self.epoch = epoch

    def __repr__(self) -> str:
        return (
            f"Event(time={self.time!r}, kind={self.kind!r}, seq={self.seq!r}, "
            f"payload={self.payload!r}, epoch={self.epoch!r})"
        )


class EventQueue:
    """Min-heap of events with deterministic total ordering."""

    def __init__(self) -> None:
        self._heap: List[Tuple[float, int, int, Event]] = []
        #: Next sequence number; a plain int (not itertools.count, whose
        #: pickling is deprecated) so a checkpointed queue continues the
        #: original numbering.
        self._next_seq = 0
        #: Latest popped timestamp; pushes may not schedule behind it.
        self._watermark = -math.inf

    # -- queue operations ----------------------------------------------
    @hot_path
    def push(
        self,
        time: Seconds,
        kind: EventKind,
        payload: Any = None,
        epoch: int = 0,
    ) -> Event:
        """Schedule an event; returns the Event object.

        Raises :class:`SimulationError` for negative or non-finite
        timestamps and for *past-time scheduling*: a timestamp behind the
        pop watermark by more than float time resolution can never be
        processed causally.
        """
        # One chained comparison rejects negatives, NaN (every comparison
        # with NaN is false) and +inf.
        if not 0.0 <= time < math.inf:
            kind_of_bad = "negative" if time < 0 else "non-finite"
            raise SimulationError(
                f"cannot schedule event at {kind_of_bad} time {time!r}"
            )
        if time_before(time, self._watermark):
            raise SimulationError(
                f"cannot schedule event at t={time!r} behind the pop "
                f"watermark t={self._watermark!r}"
            )
        seq = self._next_seq
        self._next_seq = seq + 1
        event = Event(time=time, kind=kind, seq=seq, payload=payload, epoch=epoch)
        heapq.heappush(self._heap, (time, int(kind), seq, event))
        return event

    @hot_path
    def pop(self) -> Event:
        """Remove and return the earliest event; advances the watermark."""
        if not self._heap:
            raise SimulationError("pop from empty event queue")
        event = heapq.heappop(self._heap)[3]
        if event.time > self._watermark:
            self._watermark = event.time
        return event

    @hot_path
    def peek_time(self) -> Optional[Seconds]:
        """Timestamp of the earliest event, or None if empty."""
        if not self._heap:
            return None
        return self._heap[0][0]

    @hot_path
    def has_event_within(self, horizon: Seconds) -> bool:
        """Is the next event at or before ``horizon``, within resolution?

        This is the batch-draining test: an event within float time
        resolution of the horizon denotes the *same simulation instant*
        and must join the batch — the same tolerance :meth:`push` grants
        to schedules straddling the watermark (raw ``<=`` here used to
        split such batches).
        """
        if not self._heap:
            return False
        next_time = self._heap[0][0]
        return next_time <= horizon or times_close(next_time, horizon)

    @property
    def watermark(self) -> Seconds:
        """Latest popped timestamp (``-inf`` before the first pop)."""
        return self._watermark

    def __len__(self) -> int:
        return len(self._heap)

    def __bool__(self) -> bool:
        return bool(self._heap)


#: The single queue under its former base-class name.  The benchmark
#: suite's layer tracer (``benchmarks/suite/tracer.py``) and its self-test
#: patch ``EventQueueBase.push``/``pop`` by this name, and that directory
#: is the benchmark's fixed measuring harness.
EventQueueBase = EventQueue
