"""Unit tests for the event queue primitives."""

import pytest

from repro.exceptions import SimulationError
from repro.simulation.events import Event, EventKind, EventQueue


def test_pop_orders_by_time():
    queue = EventQueue()
    queue.schedule(3.0, EventKind.MESSAGE_ARRIVAL, "late")
    queue.schedule(1.0, EventKind.MESSAGE_ARRIVAL, "early")
    queue.schedule(2.0, EventKind.OPERATION_FINISH, "middle")
    assert [queue.pop().payload for _ in range(3)] == [
        "early",
        "middle",
        "late",
    ]


def test_simultaneous_events_pop_in_schedule_order():
    queue = EventQueue()
    for i in range(5):
        queue.schedule(1.0, EventKind.MESSAGE_ARRIVAL, i)
    assert [queue.pop().payload for _ in range(5)] == [0, 1, 2, 3, 4]


def test_unorderable_payloads_do_not_break_heap():
    queue = EventQueue()
    queue.schedule(1.0, EventKind.MESSAGE_ARRIVAL, {"a": 1})
    queue.schedule(1.0, EventKind.MESSAGE_ARRIVAL, {"b": 2})
    assert queue.pop().payload == {"a": 1}


def test_len_and_bool():
    queue = EventQueue()
    assert not queue and len(queue) == 0
    queue.schedule(1.0, EventKind.MESSAGE_ARRIVAL)
    assert queue and len(queue) == 1


def test_empty_pop_raises():
    queue = EventQueue()
    with pytest.raises(SimulationError):
        queue.pop()


def test_negative_time_rejected():
    queue = EventQueue()
    with pytest.raises(SimulationError):
        queue.schedule(-0.1, EventKind.MESSAGE_ARRIVAL)


def test_event_ordering_ignores_payload():
    a = Event(1.0, 0, EventKind.MESSAGE_ARRIVAL, payload={"x": 1})
    b = Event(1.0, 1, EventKind.OPERATION_FINISH, payload={"y": 2})
    assert a < b  # sequence breaks the tie; payload never compared
