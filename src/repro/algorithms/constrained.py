"""Constraint-aware deployment (the §6 "user-defined constraints" study).

Section 2.2 admits a constraint set ``C``; section 6 leaves "a detailed
study of the proposed algorithms whenever user-defined constraints are
given" as future work. :class:`ConstraintAwareSearch` provides that
study's missing piece: a deployment algorithm that *honours* the
constraints instead of filtering after the fact.

Strategy: seed with any base algorithm, then steepest-descent over
single-operation moves under a lexicographic objective --

1. minimise the summed constraint excess (seconds over the limits);
2. among equally-feasible mappings, minimise the scalar objective.

The result is admissible whenever the search finds any admissible
mapping; when the constraints are unsatisfiable it returns the mapping
with the smallest remaining excess (callers can check with
``constraints.satisfied(...)``).

The refinement loop runs as a step generator on the shared
:class:`~repro.algorithms.runtime.SearchRuntime`; the yielded values
are the lexicographic ``(excess, objective)`` pairs, so a budget
returns the *most feasible* mapping seen so far.
"""

from __future__ import annotations

from typing import Iterator

from repro.algorithms.base import (
    DeploymentAlgorithm,
    ProblemContext,
    register_algorithm,
)
from repro.algorithms.heavy_ops import HeavyOpsLargeMsgs
from repro.algorithms.runtime import SearchBudget, SearchStep
from repro.core.constraints import ConstraintSet
from repro.core.mapping import Deployment

__all__ = ["ConstraintAwareSearch"]


@register_algorithm
class ConstraintAwareSearch(DeploymentAlgorithm):
    """Local search under a lexicographic (feasibility, objective) order.

    Parameters
    ----------
    constraints:
        The user constraint set ``C`` to honour.
    seed_algorithm:
        Produces the starting mapping (HeavyOps-LargeMsgs by default --
        start from the paper's best general-purpose heuristic).
    max_iterations:
        Improvement rounds; each scans the full move neighbourhood.
    """

    name = "ConstraintAware"

    def __init__(
        self,
        constraints: ConstraintSet | None = None,
        seed_algorithm: DeploymentAlgorithm | None = None,
        max_iterations: int = 200,
    ):
        self.max_iterations = SearchBudget.validate_count(
            "max_iterations", max_iterations
        )
        self.constraints = constraints or ConstraintSet()
        self.seed_algorithm = seed_algorithm or HeavyOpsLargeMsgs()

    def _score(self, context: ProblemContext, deployment: Deployment):
        cost = context.cost_model.evaluate(deployment)
        return (self.constraints.total_excess(cost), cost.objective)

    def _deploy(self, context: ProblemContext) -> Deployment:
        return context.search(self._steps(context)).best

    def _steps(self, context: ProblemContext) -> Iterator[SearchStep]:
        current = self.seed_algorithm.deploy(
            context.workflow,
            context.network,
            cost_model=context.cost_model,
            rng=context.rng,
        )
        current_score = self._score(context, current)
        operations = context.workflow.operation_names
        servers = context.network.server_names
        yield SearchStep(current_score, current.copy, evals=1)
        for _ in range(self.max_iterations):
            best_move: tuple[str, str] | None = None
            best_score = current_score
            evals = 0
            for operation in operations:
                original = current.server_of(operation)
                for server in servers:
                    if server == original:
                        continue
                    current.assign(operation, server)
                    score = self._score(context, current)
                    evals += 1
                    if score < best_score:
                        best_score = score
                        best_move = (operation, server)
                current.assign(operation, original)
            if best_move is None:
                yield SearchStep(
                    best_score, current.copy, evals=evals, rejected=evals
                )
                break
            current.assign(*best_move)
            current_score = best_score
            yield SearchStep(
                best_score,
                current.copy,
                evals=evals,
                accepted=1,
                rejected=evals - 1,
            )
