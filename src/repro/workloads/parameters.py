"""Experimental parameter mixtures (section 4.1, Table 6).

Three experiment classes drive the paper's evaluation:

* **Class A** varies the link capacity and the message sizes;
* **Class B** varies the CPU power of the servers and the workload;
* **Class C** varies everything, using the exact discrete mixtures of
  Table 6 -- which :data:`ClassCParameters.paper` reproduces verbatim.

Every mixture is a :class:`DiscreteMixture`: a finite set of values with
normalised probabilities, sampled with a caller-supplied RNG so whole
experiments replay from a single seed.

Operation cost anchors from section 4.1: simple operations cost 5 M
cycles, medium 50 M, heavy 500 M.
"""

from __future__ import annotations

import bisect
import itertools
import math
from dataclasses import dataclass, field
from typing import Generic, Sequence, TypeVar

from repro.exceptions import ExperimentError
from repro.numeric import ordered_sum
from repro.workloads.messages import (
    COMPLEX_MESSAGE,
    MEDIUM_MESSAGE,
    SIMPLE_MESSAGE,
    MessageMixture,
    PAPER_MESSAGE_MIXTURE,
)

__all__ = [
    "DiscreteMixture",
    "ClassCParameters",
    "ClassAParameters",
    "ClassBParameters",
    "SIMPLE_OPERATION_CYCLES",
    "MEDIUM_OPERATION_CYCLES",
    "HEAVY_OPERATION_CYCLES",
]

T = TypeVar("T")

#: Section 4.1 operation cost anchors (cycles).
SIMPLE_OPERATION_CYCLES = 5e6
MEDIUM_OPERATION_CYCLES = 50e6
HEAVY_OPERATION_CYCLES = 500e6


class DiscreteMixture(Generic[T]):
    """A finite distribution over arbitrary values.

    Parameters
    ----------
    values_and_weights:
        ``(value, weight)`` pairs; positive weights, normalised
        internally. Sampling uses inverse-CDF over the cumulative
        weights, so a fixed RNG seed reproduces a full draw sequence.
    """

    def __init__(self, values_and_weights: Sequence[tuple[T, float]]):
        if not values_and_weights:
            raise ExperimentError("a mixture needs at least one value")
        total = 0.0
        for value, weight in values_and_weights:
            if weight <= 0 or not math.isfinite(weight):
                raise ExperimentError(
                    f"weight of value {value!r} must be a positive finite "
                    f"number, got {weight!r}"
                )
            total += weight
        self._values = [v for v, _ in values_and_weights]
        self._cumulative = list(
            itertools.accumulate(w / total for _, w in values_and_weights)
        )
        self._cumulative[-1] = 1.0

    @classmethod
    def constant(cls, value: T) -> "DiscreteMixture[T]":
        """A degenerate mixture always yielding *value*."""
        return cls([(value, 1.0)])

    @property
    def values(self) -> tuple[T, ...]:
        """The support of the mixture."""
        return tuple(self._values)

    def probabilities(self) -> tuple[float, ...]:
        """Normalised probabilities aligned with :attr:`values`."""
        previous = 0.0
        out = []
        for cumulative in self._cumulative:
            out.append(cumulative - previous)
            previous = cumulative
        return tuple(out)

    def sample(self, rng) -> T:
        """Draw one value (*rng* is ``random.Random``-like)."""
        index = bisect.bisect_left(self._cumulative, rng.random())
        return self._values[min(index, len(self._values) - 1)]

    def mean(self) -> float:
        """Expected value (numeric supports only)."""
        return ordered_sum(
            p * float(v)  # type: ignore[arg-type]
            for p, v in zip(self.probabilities(), self._values)
        )


@dataclass(frozen=True)
class ClassCParameters:
    """The "change all the variables" configuration (Table 6).

    Attributes
    ----------
    message_mixture:
        ``MsgSize(O_i, O_{i+1})``: simple/medium/complex at 25/50/25 %.
    line_speed_bps:
        ``Line_Speed``: 10/100/1000 Mbps at 25/50/25 %.
    operation_cycles:
        ``C(O_i)``: 10/20/30 Mcycles at 25/50/25 %.
    server_power_hz:
        ``P(S_i)``: 1/2/3 GHz at 25/50/25 %.
    """

    message_mixture: MessageMixture = field(
        default_factory=lambda: PAPER_MESSAGE_MIXTURE
    )
    line_speed_bps: DiscreteMixture[float] = field(
        default_factory=lambda: DiscreteMixture(
            [(10e6, 0.25), (100e6, 0.50), (1000e6, 0.25)]
        )
    )
    operation_cycles: DiscreteMixture[float] = field(
        default_factory=lambda: DiscreteMixture(
            [(10e6, 0.25), (20e6, 0.50), (30e6, 0.25)]
        )
    )
    server_power_hz: DiscreteMixture[float] = field(
        default_factory=lambda: DiscreteMixture(
            [(1e9, 0.25), (2e9, 0.50), (3e9, 0.25)]
        )
    )

    @classmethod
    def paper(cls) -> "ClassCParameters":
        """The exact Table 6 configuration."""
        return cls()

    def with_fixed_bus_speed(self, speed_bps: float) -> "ClassCParameters":
        """A copy whose line speed is pinned (Fig. 6 runs per bus speed)."""
        return ClassCParameters(
            message_mixture=self.message_mixture,
            line_speed_bps=DiscreteMixture.constant(speed_bps),
            operation_cycles=self.operation_cycles,
            server_power_hz=self.server_power_hz,
        )


@dataclass(frozen=True)
class ClassAParameters:
    """Class A: vary link capacity and message size, fix the rest.

    The paper describes (without tabulating) experiments that sweep the
    communication side while CPU power and operation cost stay constant.
    """

    message_mixture: MessageMixture
    line_speed_bps: DiscreteMixture[float]
    operation_cycles: DiscreteMixture[float] = field(
        default_factory=lambda: DiscreteMixture.constant(
            MEDIUM_OPERATION_CYCLES
        )
    )
    server_power_hz: DiscreteMixture[float] = field(
        default_factory=lambda: DiscreteMixture.constant(2e9)
    )

    @classmethod
    def sweep_point(
        cls, speed_bps: float, message_scale: str = "medium"
    ) -> "ClassAParameters":
        """One point of the Class A sweep.

        *message_scale* picks a single SOAP class (``"simple"``,
        ``"medium"``, ``"complex"``) or ``"mixed"`` for the Table 6
        blend.
        """
        scales = {
            "simple": MessageMixture([(SIMPLE_MESSAGE, 1.0)]),
            "medium": MessageMixture([(MEDIUM_MESSAGE, 1.0)]),
            "complex": MessageMixture([(COMPLEX_MESSAGE, 1.0)]),
            "mixed": PAPER_MESSAGE_MIXTURE,
        }
        if message_scale not in scales:
            raise ExperimentError(
                f"unknown message scale {message_scale!r}; expected one of "
                f"{sorted(scales)}"
            )
        return cls(
            message_mixture=scales[message_scale],
            line_speed_bps=DiscreteMixture.constant(speed_bps),
        )

    def as_class_c(self) -> ClassCParameters:
        """View as a :class:`ClassCParameters` for the shared runner."""
        return ClassCParameters(
            message_mixture=self.message_mixture,
            line_speed_bps=self.line_speed_bps,
            operation_cycles=self.operation_cycles,
            server_power_hz=self.server_power_hz,
        )


@dataclass(frozen=True)
class ClassBParameters:
    """Class B: vary CPU power and workload, fix the communication side."""

    operation_cycles: DiscreteMixture[float]
    server_power_hz: DiscreteMixture[float]
    message_mixture: MessageMixture = field(
        default_factory=lambda: MessageMixture([(MEDIUM_MESSAGE, 1.0)])
    )
    line_speed_bps: DiscreteMixture[float] = field(
        default_factory=lambda: DiscreteMixture.constant(100e6)
    )

    @classmethod
    def sweep_point(
        cls, operation_cycles: float, power_hz: float
    ) -> "ClassBParameters":
        """One point of the Class B sweep (fixed cost class, fixed power)."""
        return cls(
            operation_cycles=DiscreteMixture.constant(operation_cycles),
            server_power_hz=DiscreteMixture.constant(power_hz),
        )

    def as_class_c(self) -> ClassCParameters:
        """View as a :class:`ClassCParameters` for the shared runner."""
        return ClassCParameters(
            message_mixture=self.message_mixture,
            line_speed_bps=self.line_speed_bps,
            operation_cycles=self.operation_cycles,
            server_power_hz=self.server_power_hz,
        )
