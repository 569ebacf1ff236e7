"""Event primitives for the discrete-event simulator.

A tiny calendar: :class:`Event` couples a timestamp with a kind and a
payload, and :class:`EventQueue` is a stable min-heap over (time,
sequence) so that simultaneous events pop in scheduling order -- which
keeps whole simulations deterministic for a fixed RNG seed.
"""

from __future__ import annotations

import heapq
import itertools
from dataclasses import dataclass, field
from enum import Enum
from typing import Any

from repro.exceptions import SimulationError

__all__ = ["EventKind", "Event", "EventQueue"]


class EventKind(Enum):
    """What an event does when popped."""

    MESSAGE_ARRIVAL = "message_arrival"
    OPERATION_FINISH = "operation_finish"


@dataclass(frozen=True, order=True)
class Event:
    """One scheduled happening.

    Ordering is by ``(time, sequence)``; kind and payload are excluded
    from comparisons so arbitrary payloads never break heap ordering.
    """

    time: float
    sequence: int
    kind: EventKind = field(compare=False)
    payload: Any = field(compare=False, default=None)


class EventQueue:
    """A stable priority queue of :class:`Event` objects."""

    def __init__(self) -> None:
        self._heap: list[Event] = []
        self._counter = itertools.count()

    def schedule(self, time: float, kind: EventKind, payload: Any = None) -> Event:
        """Insert an event at *time*; returns it (mainly for tests)."""
        if time < 0:
            raise SimulationError(f"cannot schedule an event at t={time}")
        event = Event(time, next(self._counter), kind, payload)
        heapq.heappush(self._heap, event)
        return event

    def pop(self) -> Event:
        """Remove and return the earliest event."""
        if not self._heap:
            raise SimulationError("pop from an empty event queue")
        return heapq.heappop(self._heap)

    def __len__(self) -> int:
        return len(self._heap)

    def __bool__(self) -> bool:
        return bool(self._heap)
