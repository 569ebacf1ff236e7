"""Clocks shared by everything that measures or budgets time.

Two consumers need the same abstraction: the fleet controller stamps a
latency onto every log record, and the search runtime enforces
wall-clock deadlines. Both accept any zero-argument callable returning
seconds, so production code runs on the monotonic wall clock while
tests and scenario replays inject a :class:`StepClock` and become pure
functions of their inputs.

:data:`MONOTONIC`
    The library's default wall clock (:func:`time.monotonic` -- immune
    to system-clock adjustments, which matters for deadlines).
:class:`StepClock`
    A deterministic clock advancing by a fixed step per call.
    Previously private to :mod:`repro.service.controller`; extracted
    here so deadline-driven searches can be tested deterministically
    too.
"""

from __future__ import annotations

import math
import time
from typing import Callable

__all__ = ["Clock", "MONOTONIC", "StepClock"]

#: A clock is any zero-argument callable returning seconds.
Clock = Callable[[], float]

#: Default wall clock for deadlines and latency stamps.
MONOTONIC: Clock = time.monotonic


class StepClock:
    """A deterministic clock: every call advances by a fixed step.

    Injected by scenario replays so that the latency column of the
    fleet log is reproducible, and by the search-runtime tests so that
    "the deadline fires after exactly k steps" is a statement about
    call counts rather than about machine speed. The default wall
    clock (:data:`MONOTONIC`) is for benchmarks and live use.

    Parameters
    ----------
    step_s:
        Seconds added per reading: finite and positive, so the clock
        moves forward and deadlines fire. Anything else raises
        :class:`ValueError`.
    start_s:
        Initial reading (the first call returns ``start_s + step_s``).
    """

    def __init__(self, step_s: float = 0.001, start_s: float = 0.0):
        if not 0.0 < step_s < math.inf:
            raise ValueError(
                f"step_s must be a finite positive number of seconds, "
                f"got {step_s!r}"
            )
        self.step_s = step_s
        self._now = start_s

    def __call__(self) -> float:
        """Advance and return the current reading."""
        self._now += self.step_s
        return self._now
