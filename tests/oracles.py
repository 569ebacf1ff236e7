"""Reference implementations the production code is checked against."""

from __future__ import annotations

import math
from contextlib import contextmanager
from typing import Iterator
from unittest import mock

import numpy as np

from repro.algorithms.base import ProblemContext
from repro.algorithms.local_search import HillClimbing, SimulatedAnnealing
from repro.algorithms.runtime import SearchStep
from repro.core.batch import BatchScores
from repro.core.compiled import CompiledInstance
from repro.core.cost import CostModel
from repro.core.incremental import MoveEvaluator
from repro.core.mapping import Deployment
from repro.exceptions import DisconnectedNetworkError
from repro.network import apsp
from repro.network.routing import Router
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


def _targeted_build_route(router: Router, source: int, target: int) -> None:
    """A cold pair answered by two targeted Dijkstra runs of its own.

    One early-stop pass per weight from the pair's canonical endpoint to
    the other, classified like a pair built from its source's rows. No
    rows are kept, so a router filled this way must not be invalidated
    (its pairs would never be refreshed) nor asked for a size-independent
    pair's :meth:`~repro.network.routing.Router.path` (rebuilt from rows).
    """
    graph = router._compiled_graph()
    a, b = min(source, target), max(source, target)
    try:
        path_zero, path_large = (
            apsp.row_path(graph, apsp._dijkstra(graph, a, weight, target=b), a, b)
            for weight in (apsp.WEIGHT_PROPAGATION, apsp.WEIGHT_TRANSFER)
        )
    except DisconnectedNetworkError:
        names = router.server_names
        raise DisconnectedNetworkError(
            f"no route from {names[source]!r} to {names[target]!r} in "
            f"{router.network.name!r}"
        ) from None
    router.dijkstra_runs += 2
    router._store(a, b, apsp.classify_pair(graph, path_zero, path_large))


@contextmanager
def per_pair_routes():
    """Resolve every cold route pair by its own two targeted runs.

    Patches :func:`_targeted_build_route` in as ``Router._build_route``:
    the per-pair fill that the benchmarks compare the per-source rows
    (and the in-place refresh) against. Routes are bit-identical either
    way; only the Dijkstra work differs.
    """
    with mock.patch.object(Router, "_build_route", _targeted_build_route):
        yield


@contextmanager
def rebuild_routes_on_link_events():
    """Answer fleet link events with a from-scratch route rebuild.

    Replaces :meth:`FleetState._invalidate_routes
    <repro.service.state.FleetState._invalidate_routes>` -- the
    in-place refresh -- with what a server change does: drop the shared
    router and every cached cost model, then let the next queries
    rebuild them, pair by pair on demand (:func:`per_pair_routes`).
    Nothing route-derived is kept across a link event (only the
    link-independent compiled workflows are rebound), so a fleet that
    decides differently under this oracle has a stale cache on the
    in-place path.
    """

    def rebuild(state, *_args, **_kwargs):
        state._invalidate_caches()

    with per_pair_routes(), mock.patch.object(
        FleetState, "_invalidate_routes", rebuild
    ):
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


class FullEvaluationHillClimbing(HillClimbing):
    """:class:`HillClimbing` pricing every candidate from scratch.

    Each round walks the move neighbourhood in workflow-operation x
    network-server order and prices every move with one full
    ``CostModel.objective()`` call; the first strict minimum below the
    incumbent wins. It still runs through ``context.search``, so a
    benchmark that times it against :class:`HillClimbing` compares
    pricing alone. Not registered: it exists to be compared against.
    """

    def _steps(
        self, context: ProblemContext, current: Deployment
    ) -> Iterator[SearchStep]:
        cost_model = context.cost_model
        current_value = cost_model.objective(current)
        yield SearchStep(current_value, current.copy, evals=1)
        for _ in range(self.max_iterations):
            best_move: tuple[str, str] | None = None
            best_value = current_value
            evals = 0
            for operation in context.workflow.operation_names:
                original = current.server_of(operation)
                for server in context.network.server_names:
                    if server == original:
                        continue
                    current.assign(operation, server)
                    value = cost_model.objective(current)
                    evals += 1
                    if value < best_value:
                        best_value = value
                        best_move = (operation, server)
                current.assign(operation, original)
            if best_move is None:
                yield SearchStep(
                    best_value, current.copy, evals=evals, rejected=evals
                )
                break
            current.assign(*best_move)
            current_value = best_value
            yield SearchStep(
                best_value,
                current.copy,
                evals=evals,
                accepted=1,
                rejected=evals - 1,
            )


class FullEvaluationAnnealing(SimulatedAnnealing):
    """:class:`SimulatedAnnealing` pricing every proposal from scratch.

    The same proposal sequence and Metropolis test, with each proposal
    priced by one full ``CostModel.objective()`` call instead of the
    incremental evaluator, driven through ``context.search``. Not
    registered: it exists to be compared against.
    """

    def _steps(
        self, context: ProblemContext, current: Deployment
    ) -> Iterator[SearchStep]:
        cost_model = context.cost_model
        rng = context.rng
        operations = context.workflow.operation_names
        servers = context.network.server_names
        current_value = cost_model.objective(current)
        snapshot = current.copy
        yield SearchStep(current_value, snapshot, 1)
        if len(servers) == 1:
            return  # no move neighbourhood exists
        temperature = self.initial_temperature * max(current_value, 1e-12)
        for _ in range(self.steps):
            operation = rng.choice(operations)
            original = current.server_of(operation)
            alternatives = [s for s in servers if s != original]
            server = rng.choice(alternatives)
            current.assign(operation, server)
            value = cost_model.objective(current)
            delta = value - current_value
            if delta <= 0 or rng.random() < math.exp(-delta / temperature):
                current_value = value
                yield SearchStep(value, snapshot, 1, 1, 0)
            else:
                current.assign(operation, original)
                yield SearchStep(current_value, snapshot, 1, 0, 1)
            temperature *= self.cooling
