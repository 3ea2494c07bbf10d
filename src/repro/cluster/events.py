"""A small discrete-event engine for the cluster simulator.

Events are ordered by (time, priority, sequence number): ties at the same
simulated time are broken first by an explicit priority (finishes are
processed before submissions so freed GPUs are visible to the scheduler
within the same instant) and then by insertion order, which keeps runs fully
deterministic.

The heap stores ``(time_h, priority, sequence, event)`` tuples, so every
comparison the heap makes is a C-level tuple comparison; sequence numbers are
unique, so it never reaches the :class:`Event` itself.  :class:`Event` stays
the public currency of the queue (``push``/``pop``/``peek`` and the snapshot
dump hand it out) and still orders by the same key.
"""

from __future__ import annotations

import enum
import heapq
import itertools
import math
from dataclasses import dataclass, field
from typing import Any, Optional

from ..errors import SimulationError

__all__ = ["EventType", "Event", "EventQueue"]


class EventType(enum.IntEnum):
    """Kinds of events processed by the simulator.

    The integer value doubles as the tie-breaking priority at equal times:
    lower values are processed first.
    """

    JOB_FINISH = 0
    JOB_SUBMIT = 1
    CONTROL = 2
    TICK = 3


@dataclass(order=True)
class Event:
    """One scheduled event.

    Only the sort key participates in ordering; the payload is excluded so
    arbitrary (unorderable) objects can ride along.
    """

    time_h: float
    priority: int
    sequence: int
    event_type: EventType = field(compare=False)
    payload: Any = field(compare=False, default=None)


class EventQueue:
    """A heap-based future event list."""

    def __init__(self) -> None:
        self._heap: list[tuple[float, int, int, Event]] = []
        self._counter = itertools.count()
        self._now_h = 0.0

    @property
    def now_h(self) -> float:
        """Current simulated time in hours (time of the last popped event)."""
        return self._now_h

    def __len__(self) -> int:
        return len(self._heap)

    def push(self, time_h: float, event_type: EventType, payload: Any = None) -> Event:
        """Schedule an event at ``time_h`` (finite, and not in the past)."""
        if not math.isfinite(time_h):
            raise SimulationError(f"cannot schedule an event at non-finite time {time_h!r}")
        if time_h < self._now_h - 1e-12:
            raise SimulationError(
                f"cannot schedule an event at {time_h} before current time {self._now_h}"
            )
        time_h = float(time_h)
        priority = int(event_type)
        sequence = next(self._counter)
        event = Event(time_h, priority, sequence, event_type, payload)
        heapq.heappush(self._heap, (time_h, priority, sequence, event))
        return event

    def pop(self) -> Event:
        """Remove and return the next event, advancing the clock."""
        if not self._heap:
            raise SimulationError("pop() on an empty event queue")
        time_h, _, _, event = heapq.heappop(self._heap)
        self._now_h = time_h
        return event

    def peek(self) -> Optional[Event]:
        """The next event without removing it (``None`` when empty)."""
        return self._heap[0][3] if self._heap else None

    def peek_time(self) -> Optional[float]:
        """Time of the next event (``None`` when empty)."""
        return self._heap[0][0] if self._heap else None

    def is_empty(self) -> bool:
        """Whether no events remain."""
        return not self._heap

    def clear(self) -> None:
        """Drop all pending events (the clock is left unchanged)."""
        self._heap.clear()

    # ------------------------------------------------------------------
    # Snapshot / restore (checkpointing support)
    # ------------------------------------------------------------------
    def pending_events(self) -> list[Event]:
        """The not-yet-processed events in deterministic (sort-key) order.

        Used by :meth:`~repro.cluster.simulator.ClusterSimulator.snapshot`;
        the heap's internal layout is not canonical, so the dump is sorted.
        """
        return [entry[3] for entry in sorted(self._heap)]

    def restore(self, events: list[Event], now_h: float, next_sequence: int) -> None:
        """Replace the queue's entire state (events, clock, sequence counter).

        ``next_sequence`` must exceed every restored event's sequence so
        future pushes keep sorting after existing same-instant events —
        exactly as they would have in the uninterrupted run.
        """
        if any(event.sequence >= next_sequence for event in events):
            raise SimulationError(
                "next_sequence must exceed every restored event's sequence"
            )
        self._heap = [(event.time_h, event.priority, event.sequence, event) for event in events]
        heapq.heapify(self._heap)
        self._counter = itertools.count(next_sequence)
        self._now_h = float(now_h)

    @property
    def next_sequence(self) -> int:
        """The sequence number the next pushed event would receive.

        Reading it consumes one counter value (sequence numbers only break
        ties, so gaps are harmless).
        """
        return next(self._counter)
