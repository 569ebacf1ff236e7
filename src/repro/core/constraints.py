"""User constraints ``C`` on deployments (section 2.2, future work of §6).

The paper's broadest problem variant admits "a set of user constraints C,
concerning for example an upper bound on the completion time of a workflow
or on the distribution of load among the servers". This module provides a
small constraint framework: individual :class:`Constraint` objects judge a
:class:`~repro.core.cost.CostBreakdown`, and a :class:`ConstraintSet`
aggregates them, reporting every violation.

Algorithms stay constraint-agnostic; the experiment harness filters or
flags solutions through a constraint set after the fact, matching the
paper's formulation where constraints gate the admissible mappings.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass
from typing import Iterable, Iterator

from repro.core.cost import CostBreakdown
from repro.numeric import ordered_sum

__all__ = [
    "Constraint",
    "MaxExecutionTime",
    "MaxServerLoad",
    "MaxResponseTime",
    "MaxTimePenalty",
    "ConstraintSet",
]


class Constraint(ABC):
    """A single admissibility rule on a deployment's cost breakdown."""

    @abstractmethod
    def violation(self, cost: CostBreakdown) -> str | None:
        """A human-readable violation message, or ``None`` when satisfied."""

    def excess(self, cost: CostBreakdown) -> float:
        """How far over the limit *cost* is, in seconds (0 when satisfied).

        The constraint-aware search (:mod:`repro.algorithms.constrained`)
        minimises the summed excess before the objective; subclasses with
        a numeric limit override this. The default treats any violation
        as an excess of ``inf`` (feasibility is all-or-nothing).
        """
        return 0.0 if self.violation(cost) is None else float("inf")

    def satisfied(self, cost: CostBreakdown) -> bool:
        """True when *cost* respects this constraint."""
        return self.violation(cost) is None


@dataclass(frozen=True)
class MaxExecutionTime(Constraint):
    """Upper bound on ``Texecute`` in seconds."""

    limit_s: float

    def violation(self, cost: CostBreakdown) -> str | None:
        """Report when ``Texecute`` exceeds the bound."""
        if cost.execution_time > self.limit_s:
            return (
                f"execution time {cost.execution_time:.6g}s exceeds limit "
                f"{self.limit_s:.6g}s"
            )
        return None

    def excess(self, cost: CostBreakdown) -> float:
        """Seconds of ``Texecute`` over the limit."""
        return max(0.0, cost.execution_time - self.limit_s)


@dataclass(frozen=True)
class MaxServerLoad(Constraint):
    """Upper bound on any single server's ``Load(s)`` in seconds.

    Optionally restricted to one named server.
    """

    limit_s: float
    server_name: str | None = None

    def violation(self, cost: CostBreakdown) -> str | None:
        """Report the first server whose load exceeds the bound."""
        if self.server_name is not None:
            load = cost.loads.get(self.server_name)
            if load is None:
                return f"no load recorded for server {self.server_name!r}"
            if load > self.limit_s:
                return (
                    f"load of {self.server_name!r} is {load:.6g}s, over "
                    f"limit {self.limit_s:.6g}s"
                )
            return None
        for server, load in cost.loads.items():
            if load > self.limit_s:
                return (
                    f"load of {server!r} is {load:.6g}s, over limit "
                    f"{self.limit_s:.6g}s"
                )
        return None

    def excess(self, cost: CostBreakdown) -> float:
        """Summed seconds of load over the limit (all offending servers)."""
        if self.server_name is not None:
            load = cost.loads.get(self.server_name)
            if load is None:
                return float("inf")
            return max(0.0, load - self.limit_s)
        return ordered_sum(
            max(0.0, load - self.limit_s) for load in cost.loads.values()
        )


@dataclass(frozen=True)
class MaxResponseTime(Constraint):
    """Upper bound on one operation's (expected) completion time.

    Section 6: "apart from the overall execution time, the response time
    of individual operations can also be considered as part of the cost
    model." Requires a breakdown produced by
    :meth:`repro.core.cost.CostModel.evaluate` (which fills
    ``response_times``).
    """

    operation_name: str
    limit_s: float

    def violation(self, cost: CostBreakdown) -> str | None:
        """Report when the operation's response time exceeds the bound."""
        response = cost.response_times.get(self.operation_name)
        if response is None:
            return (
                f"no response time recorded for operation "
                f"{self.operation_name!r}"
            )
        if response > self.limit_s:
            return (
                f"response time of {self.operation_name!r} is "
                f"{response:.6g}s, over limit {self.limit_s:.6g}s"
            )
        return None

    def excess(self, cost: CostBreakdown) -> float:
        """Seconds of response time over the limit."""
        response = cost.response_times.get(self.operation_name)
        if response is None:
            return float("inf")
        return max(0.0, response - self.limit_s)


@dataclass(frozen=True)
class MaxTimePenalty(Constraint):
    """Upper bound on the fairness penalty in seconds."""

    limit_s: float

    def violation(self, cost: CostBreakdown) -> str | None:
        """Report when the fairness penalty exceeds the bound."""
        if cost.time_penalty > self.limit_s:
            return (
                f"time penalty {cost.time_penalty:.6g}s exceeds limit "
                f"{self.limit_s:.6g}s"
            )
        return None

    def excess(self, cost: CostBreakdown) -> float:
        """Seconds of fairness penalty over the limit."""
        return max(0.0, cost.time_penalty - self.limit_s)


class ConstraintSet:
    """A conjunction of constraints with violation reporting."""

    def __init__(self, constraints: Iterable[Constraint] = ()):
        self._constraints: list[Constraint] = list(constraints)

    def add(self, constraint: Constraint) -> "ConstraintSet":
        """Append a constraint; returns self for chaining."""
        self._constraints.append(constraint)
        return self

    def __len__(self) -> int:
        return len(self._constraints)

    def __iter__(self) -> Iterator[Constraint]:
        return iter(self._constraints)

    def violations(self, cost: CostBreakdown) -> list[str]:
        """All violation messages for *cost* (empty when admissible)."""
        messages = []
        for constraint in self._constraints:
            message = constraint.violation(cost)
            if message is not None:
                messages.append(message)
        return messages

    def satisfied(self, cost: CostBreakdown) -> bool:
        """True when every constraint holds for *cost*."""
        return not self.violations(cost)

    def total_excess(self, cost: CostBreakdown) -> float:
        """Summed excess over all constraints (0 when admissible)."""
        return ordered_sum(c.excess(cost) for c in self._constraints)
