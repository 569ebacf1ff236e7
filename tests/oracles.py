"""Reference implementations the production code is checked against."""

from __future__ import annotations

from repro.core.cost import CostModel
from repro.core.incremental import MoveEvaluator
from repro.core.mapping import Deployment


def per_move_hill_climbing(
    model: CostModel, start: Deployment, max_iterations: int = 1_000
) -> tuple[Deployment, int, int, int]:
    """Steepest descent priced one ``propose_value`` call per move.

    The hill climber as it was before its rounds became one
    :meth:`MoveEvaluator.scan` call: every ``(operation, server)`` move
    is priced on its own in workflow-operation x network-server order,
    and the first strict minimum below the incumbent wins. Returns
    ``(deployment, evaluations, accepted, rejected)`` with the counters
    :class:`~repro.algorithms.runtime.SearchReport` totals for the same
    run (the starting state counts one evaluation).
    """
    current = start.copy()
    evaluator = MoveEvaluator(model, current)
    evaluations, accepted, rejected = 1, 0, 0
    for _ in range(max_iterations):
        best_move = None
        best_value = evaluator.objective
        evals = 0
        for operation in model.workflow.operation_names:
            original = current.server_of(operation)
            for server in model.network.server_names:
                if server == original:
                    continue
                value = evaluator.propose_value(operation, server)
                evals += 1
                if value < best_value:
                    best_value = value
                    best_move = (operation, server)
        evaluations += evals
        if best_move is None:
            rejected += evals
            break
        evaluator.apply(*best_move)
        accepted += 1
        rejected += evals - 1
    return current, evaluations, accepted, rejected
