"""SOAP message classes (section 4.1, after [NgCG04]).

The paper adopts three representative SOAP message sizes:

* *simple* -- 873 bytes,
* *medium* -- 7 581 bytes,
* *complex* -- 21 392 bytes,

quoting them in "Mbits" computed as ``bytes * 8 / 2**20`` (hence the
0.00666 / 0.057838 / 0.163208 figures in the text). The canonical unit in
this library is the bit, so each class exposes ``size_bits = bytes * 8``;
the Mbit property reproduces the paper's convention for report parity.
"""

from __future__ import annotations

import bisect
import itertools
import math
from dataclasses import dataclass
from typing import Sequence

from repro.exceptions import ExperimentError

__all__ = [
    "MessageClass",
    "MessageMixture",
    "SIMPLE_MESSAGE",
    "MEDIUM_MESSAGE",
    "COMPLEX_MESSAGE",
    "PAPER_MESSAGE_MIXTURE",
]


@dataclass(frozen=True)
class MessageClass:
    """A named SOAP message size class."""

    name: str
    size_bytes: int

    def __post_init__(self) -> None:
        if self.size_bytes <= 0:
            raise ExperimentError(
                f"message class {self.name!r}: size must be > 0 bytes"
            )

    @property
    def size_bits(self) -> float:
        """Size in bits (the library's canonical unit)."""
        return float(self.size_bytes * 8)

    @property
    def size_mbits_paper(self) -> float:
        """Size in the paper's "Mbits" (``bytes * 8 / 2**20``)."""
        return self.size_bytes * 8 / 2**20


#: 873-byte simple SOAP message (paper: "0.00666 Mbits").
SIMPLE_MESSAGE = MessageClass("simple", 873)
#: 7 581-byte medium SOAP message (paper: "0.057838 Mbits").
MEDIUM_MESSAGE = MessageClass("medium", 7_581)
#: 21 392-byte complex SOAP message (paper: "0.163208 Mbits").
COMPLEX_MESSAGE = MessageClass("complex", 21_392)


class MessageMixture:
    """A discrete distribution over message classes.

    Parameters
    ----------
    classes_and_weights:
        ``(MessageClass, weight)`` pairs; weights must be positive and
        are normalised internally.
    """

    def __init__(
        self, classes_and_weights: Sequence[tuple[MessageClass, float]]
    ):
        if not classes_and_weights:
            raise ExperimentError("a message mixture needs at least one class")
        total = 0.0
        for message_class, weight in classes_and_weights:
            if weight <= 0 or not math.isfinite(weight):
                raise ExperimentError(
                    f"weight of class {message_class.name!r} must be a "
                    f"positive finite number, got {weight!r}"
                )
            total += weight
        self._classes = [mc for mc, _ in classes_and_weights]
        self._cumulative = list(
            itertools.accumulate(w / total for _, w in classes_and_weights)
        )
        self._cumulative[-1] = 1.0  # guard against floating-point shortfall

    @property
    def classes(self) -> tuple[MessageClass, ...]:
        """The classes in this mixture."""
        return tuple(self._classes)

    def sample(self, rng) -> MessageClass:
        """Draw one class (*rng* is ``random.Random``-like)."""
        index = bisect.bisect_left(self._cumulative, rng.random())
        return self._classes[min(index, len(self._classes) - 1)]

    def sample_bits(self, rng) -> float:
        """Draw one class and return its size in bits."""
        return self.sample(rng).size_bits

    def mean_bits(self) -> float:
        """Expected message size in bits."""
        previous = 0.0
        mean = 0.0
        for mc, cumulative in zip(self._classes, self._cumulative):
            mean += (cumulative - previous) * mc.size_bits
            previous = cumulative
        return mean


#: Table 6 message-size mixture: simple 25 %, medium 50 %, complex 25 %.
PAPER_MESSAGE_MIXTURE = MessageMixture(
    [
        (SIMPLE_MESSAGE, 0.25),
        (MEDIUM_MESSAGE, 0.50),
        (COMPLEX_MESSAGE, 0.25),
    ]
)
