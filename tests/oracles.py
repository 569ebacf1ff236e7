"""Reference implementations the production code is checked against."""

from __future__ import annotations

from contextlib import contextmanager
from unittest import mock

import numpy as np

from repro.core.batch import BatchScores
from repro.core.compiled import CompiledInstance
from repro.core.cost import CostModel
from repro.core.incremental import MoveEvaluator
from repro.core.mapping import Deployment
from repro.service.state import FleetState


class ScalarBatchEvaluator:
    """The batch kernel's interface, priced one row at a time.

    A stand-in for :class:`~repro.core.batch.BatchEvaluator` whose
    :meth:`index_batch`, :meth:`evaluate` and :meth:`execution` loop
    over :meth:`~repro.core.compiled.CompiledInstance.components`.
    Installed by :func:`scalar_batch_pricing`, it moves the genetic
    algorithm, the sampler and the fleet rebalancer onto scalar
    pricing, so a test can check that the kernel does not change a
    single decision.
    """

    def __init__(self, compiled: CompiledInstance):
        self.compiled = compiled
        #: Rows priced so far, so a test can tell the oracle was used.
        self.rows = 0

    def index_batch(self, genomes) -> list[list[int]]:
        server_index = self.compiled.server_index
        return [[server_index[name] for name in genome] for genome in genomes]

    def evaluate(self, batch) -> BatchScores:
        self.rows += len(batch)
        scored = [
            self.compiled.components([int(server) for server in row])
            for row in batch
        ]
        # one (execution, penalty, objective) column each
        return BatchScores(*np.array(scored, dtype=float).reshape(-1, 3).T)

    def execution(self, batch) -> np.ndarray:
        return self.evaluate(batch).execution


@contextmanager
def scalar_batch_pricing():
    """Serve ``CompiledInstance.batch_evaluator()`` from the scalar oracle.

    Yields the list of :class:`ScalarBatchEvaluator` instances handed
    out inside the block.
    """
    issued: list[ScalarBatchEvaluator] = []

    def batch_evaluator(compiled):
        evaluator = ScalarBatchEvaluator(compiled)
        issued.append(evaluator)
        return evaluator

    with mock.patch.object(CompiledInstance, "batch_evaluator", batch_evaluator):
        yield issued


@contextmanager
def rebuild_routes_on_link_events():
    """Answer fleet link events with a from-scratch route rebuild.

    Replaces :meth:`FleetState._invalidate_routes
    <repro.service.state.FleetState._invalidate_routes>` -- the
    in-place refresh -- with what a server change does: drop the shared
    router and every cached cost model, then let the next queries
    rebuild them. The batched route compile is switched off, so the
    fresh router fills pair by pair on demand. Nothing route-derived is
    kept across a link event (only the link-independent compiled
    workflows are rebound), so a fleet that decides differently under
    this oracle has a stale cache on the in-place path.
    """

    def rebuild(state, *_args, **_kwargs):
        state._invalidate_caches()
        state._compile_routes = False

    with mock.patch.object(FleetState, "_invalidate_routes", rebuild):
        yield


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
