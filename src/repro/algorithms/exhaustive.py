"""The exhaustive algorithm (section 3.1).

Enumerates every one of the ``N**M`` operation-to-server mappings and
returns the one minimising the cost model's scalar objective. Exponential,
of course -- the paper uses it only on small configurations to study the
properties of near-optimal solutions, and so do we: a guard refuses
search spaces beyond a configurable size instead of hanging.

Besides the best mapping, :meth:`Exhaustive.enumerate` exposes the whole
evaluation as an iterator so the experiment harness can measure
optimality gaps on toy instances.

Through ``deploy`` the enumeration runs on the shared
:class:`~repro.algorithms.runtime.SearchRuntime`: every evaluated
mapping is one step, so an evaluation budget or deadline turns the
exact solver into an anytime one (best mapping seen so far; optimal
only when ``report.exhausted``).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Iterator

from repro.algorithms.base import (
    DeploymentAlgorithm,
    ProblemContext,
    register_algorithm,
)
from repro.algorithms.runtime import SearchStep
from repro.core.cost import CostBreakdown, CostModel
from repro.core.mapping import Deployment
from repro.core.workflow import Workflow
from repro.exceptions import AlgorithmError, SearchSpaceTooLargeError
from repro.network.topology import ServerNetwork

__all__ = ["Exhaustive", "EvaluatedMapping"]

#: Refuse to enumerate more configurations than this by default
#: (5 servers x 9 operations ~ 2.0e6 is fine; 5 x 19 ~ 1.9e13 is not).
DEFAULT_LIMIT = 5_000_000


@dataclass(frozen=True)
class EvaluatedMapping:
    """One enumerated mapping together with its cost breakdown."""

    deployment: Deployment
    cost: CostBreakdown


@register_algorithm
class Exhaustive(DeploymentAlgorithm):
    """Optimal deployment by full enumeration (guarded).

    Parameters
    ----------
    limit:
        Maximum number of configurations to enumerate;
        :class:`~repro.exceptions.SearchSpaceTooLargeError` is raised when
        ``N**M`` exceeds it.
    """

    name = "Exhaustive"

    def __init__(self, limit: int = DEFAULT_LIMIT):
        # a bad argument is a configuration error, not a search outcome:
        # raising SearchSpaceTooLargeError here would be swallowed by
        # callers that catch it to fall back to a heuristic
        if limit < 1:
            raise AlgorithmError("limit must be >= 1")
        self.limit = limit

    def search_space_size(self, workflow: Workflow, network: ServerNetwork) -> int:
        """``N**M`` for the given instance."""
        return len(network) ** len(workflow)

    def _check_size(self, workflow: Workflow, network: ServerNetwork) -> None:
        size = self.search_space_size(workflow, network)
        if size > self.limit:
            raise SearchSpaceTooLargeError(
                f"search space has {size} configurations "
                f"({len(network)}**{len(workflow)}), over the limit of "
                f"{self.limit}; use a heuristic or SolutionSampler instead"
            )

    def enumerate(
        self, workflow: Workflow, network: ServerNetwork, cost_model: CostModel
    ) -> Iterator[EvaluatedMapping]:
        """Yield every mapping with its evaluation (appendix pseudo-code).

        The appendix builds the cross product level by level; Python's
        :func:`itertools.product` produces the identical set lazily.
        """
        self._check_size(workflow, network)
        names = workflow.operation_names
        servers = network.server_names
        for combo in itertools.product(servers, repeat=len(names)):
            deployment = Deployment(dict(zip(names, combo)))
            yield EvaluatedMapping(deployment, cost_model.evaluate(deployment))

    def best(
        self, workflow: Workflow, network: ServerNetwork, cost_model: CostModel
    ) -> EvaluatedMapping:
        """The mapping minimising the scalar objective."""
        return min(
            self.enumerate(workflow, network, cost_model),
            key=lambda em: em.cost.objective,
        )

    def _deploy(self, context: ProblemContext) -> Deployment:
        return context.search(self._steps(context)).best

    def _steps(self, context: ProblemContext) -> Iterator[SearchStep]:
        # one step per enumerated mapping; the runtime's strict-improvement
        # incumbent keeps the first of equal minima, exactly like min()
        for evaluated in self.enumerate(
            context.workflow, context.network, context.cost_model
        ):
            yield SearchStep(
                evaluated.cost.objective,
                lambda candidate=evaluated.deployment: candidate,
                evals=1,
            )
