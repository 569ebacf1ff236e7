"""Reference implementations the production code is checked against."""

from __future__ import annotations

import math
from contextlib import contextmanager
from typing import Any, Iterator, Mapping
from unittest import mock

import numpy as np

from repro.algorithms.base import ProblemContext
from repro.algorithms.fair_load import FairLoad
from repro.algorithms.heavy_ops import HeavyOpsLargeMsgs
from repro.algorithms.local_search import HillClimbing, SimulatedAnnealing
from repro.algorithms.merge_messages import FairLoadMergeMessages
from repro.algorithms.runtime import SearchStep
from repro.algorithms.tie_resolver import FairLoadTieResolver, FairLoadTieResolver2
from repro.core.batch import BatchScores
from repro.core.compiled import CompiledInstance
from repro.core.cost import CostModel
from repro.core.incremental import MoveEvaluator
from repro.core.mapping import Deployment
from repro.core.migration import MigrationCostModel
from repro.exceptions import DisconnectedNetworkError, ValidationError
from repro.io.json_codec import workflow_from_dict
from repro.network import apsp
from repro.network.routing import Router
from repro.numeric import ordered_sum
from repro.service.controller import FleetConfig
from repro.service.events import (
    CapacityDrift,
    DeployRequest,
    FleetEvent,
    LinkDegrade,
    LinkFailure,
    RegionOutage,
    ServerFailed,
    ServerJoined,
    Tick,
    UndeployRequest,
    WorkloadDrift,
)
from repro.service.state import FleetState
from repro.workloads.messages import MessageClass, MessageMixture


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


def route_coefficients(
    compiled: CompiledInstance, source: int, target: int
) -> tuple[float, float] | tuple[()]:
    """The resolved route slot of one server pair of *compiled*.

    ``(propagation_s, transfer_s_per_bit)`` for an affine pair, ``()``
    for a size-dependent one: the slot :meth:`CompiledInstance.delay
    <repro.core.compiled.CompiledInstance.delay>` reads, filled through
    the router on first access exactly as ``delay`` fills it.
    """
    coeff = compiled.routes[source][target]
    if coeff is None:
        coeff = compiled.router.resolve(source, target)
    return coeff


def mixture_probabilities(mixture: MessageMixture) -> dict[MessageClass, float]:
    """Each class's normalised weight in *mixture*, in class order.

    Read off the cumulative table :meth:`MessageMixture.sample
    <repro.workloads.messages.MessageMixture.sample>` bisects, so the
    figures are the probabilities a draw actually uses.
    """
    probabilities, previous = {}, 0.0
    for message_class, cumulative in zip(mixture.classes, mixture._cumulative):
        probabilities[message_class] = cumulative - previous
        previous = cumulative
    return probabilities


def per_move_hill_climbing(
    model: CostModel,
    start: Deployment,
    max_iterations: int = 1_000,
    moves: list[tuple[str, str]] | None = None,
) -> tuple[Deployment, int, int, int]:
    """Steepest descent priced one ``propose_value`` call per move.

    The hill climber as it was before its rounds became one
    :meth:`MoveEvaluator.scan` call: every ``(operation, server)`` move
    is priced on its own in workflow-operation x network-server order,
    and the first strict minimum below the incumbent wins. Returns
    ``(deployment, evaluations, accepted, rejected)`` with the counters
    :class:`~repro.algorithms.runtime.SearchReport` totals for the same
    run (the starting state counts one evaluation). Each round's move
    is appended to *moves* when given.
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
        if moves is not None:
            moves.append(best_move)
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
    The last run's moves, one per round, are kept in :attr:`moves`.
    """

    def _steps(
        self, context: ProblemContext, current: Deployment
    ) -> Iterator[SearchStep]:
        self.moves: list[tuple[str, str]] = []
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
            self.moves.append(best_move)
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


# ----------------------------------------------------------------------
# the greedy heuristics, name-keyed
# ----------------------------------------------------------------------
#: The tie tolerance of :mod:`repro.algorithms.tie_resolver`.
TIE_RELATIVE_TOLERANCE = 1e-9


class NameKeyedWeights:
    """The section 3.4 weights as name-keyed dicts.

    Built the way ``DeploymentAlgorithm.deploy`` built them before the
    heuristics moved to operation and server indices: execution and
    send probabilities when the algorithm weights (*weighted*) and the
    cost model does, else 1.0 everywhere.
    """

    def __init__(self, context: ProblemContext, weighted: bool):
        self.workflow = context.workflow
        self.network = context.network
        cost_model = context.cost_model
        if weighted and cost_model.use_probabilities:
            self.op_weights = {
                name: cost_model.node_probability(name)
                for name in self.workflow.operation_names
            }
            self.msg_weights = {
                message.pair: cost_model.message_probability(message)
                for message in self.workflow.messages
            }
        else:
            self.op_weights = {name: 1.0 for name in self.workflow.operation_names}
            self.msg_weights = {
                message.pair: 1.0 for message in self.workflow.messages
            }

    def weighted_cycles(self, operation_name: str) -> float:
        return (
            self.workflow.operation(operation_name).cycles
            * self.op_weights[operation_name]
        )

    def weighted_message_bits(self, source: str, target: str) -> float:
        return (
            self.workflow.message(source, target).size_bits
            * self.msg_weights[(source, target)]
        )

    def initial_ideal_cycles(self) -> dict[str, float]:
        total = ordered_sum(
            op.cycles * self.op_weights[op.name] for op in self.workflow
        )
        capacity = self.network.total_power_hz
        return {
            server.name: total * server.power_hz / capacity
            for server in self.network
        }


def name_keyed_gain(
    weights: NameKeyedWeights, operation: str, server: str, mapping: Deployment
) -> float:
    """``Gain_Of_Operation_At_Server`` over names, predecessors first."""
    workflow = weights.workflow
    gain = 0.0
    for predecessor in workflow.predecessors(operation):
        if mapping.get(predecessor) == server:
            gain += weights.weighted_message_bits(predecessor, operation)
    for successor in workflow.successors(operation):
        if mapping.get(successor) == server:
            gain += weights.weighted_message_bits(operation, successor)
    return gain


class NameKeyedBudgets:
    """Remaining ``Ideal_Cycles`` per server name, sorted on every read."""

    def __init__(self, weights: NameKeyedWeights):
        self._budget = weights.initial_ideal_cycles()
        self._rank = {
            name: i for i, name in enumerate(weights.network.server_names)
        }

    def remaining(self, server: str) -> float:
        return self._budget[server]

    def charge(self, server: str, cycles: float) -> None:
        self._budget[server] -= cycles

    def sorted_servers(self) -> list[str]:
        return sorted(
            self._budget, key=lambda name: (-self._budget[name], self._rank[name])
        )

    def neediest(self) -> str:
        return self.sorted_servers()[0]


def name_keyed_tied_prefix(ordered, key) -> list:
    """Every element of *ordered* whose key ties the first's (no early exit)."""
    if not ordered:
        return []
    top = key(ordered[0])
    scale = max(abs(top), 1.0)
    return [
        name
        for name in ordered
        if abs(key(name) - top) <= TIE_RELATIVE_TOLERANCE * scale
    ]


def name_keyed_by_cost(weights: NameKeyedWeights) -> list[str]:
    """Operation names by weighted cycles descending, insertion order on ties."""
    names = list(weights.workflow.operation_names)
    rank = {name: i for i, name in enumerate(names)}
    names.sort(key=lambda name: (-weights.weighted_cycles(name), rank[name]))
    return names


def _name_keyed_start(algorithm, context: ProblemContext) -> Deployment:
    if algorithm.random_start:
        return Deployment.random(context.workflow, context.network, context.rng)
    return Deployment()


def _name_keyed_best_pair(weights, budgets, pending, mapping) -> tuple[str, str]:
    """FLTR2's choice: the best gain over tied operations x tied servers."""
    tied_servers = name_keyed_tied_prefix(
        budgets.sorted_servers(), budgets.remaining
    )
    candidates = name_keyed_tied_prefix(pending, weights.weighted_cycles)
    best_operation, best_server = candidates[0], tied_servers[0]
    best_gain = name_keyed_gain(weights, best_operation, best_server, mapping)
    for operation in candidates:
        for server in tied_servers:
            if operation == best_operation and server == best_server:
                continue
            gain = name_keyed_gain(weights, operation, server, mapping)
            if gain > best_gain:
                best_gain = gain
                best_operation = operation
                best_server = server
    return best_operation, best_server


class NameKeyedFairLoad(FairLoad):
    """:class:`FairLoad` over names: the heaviest operation to the neediest."""

    def _deploy(self, context: ProblemContext) -> Deployment:
        weights = NameKeyedWeights(context, self.uses_probability_weights)
        budgets = NameKeyedBudgets(weights)
        mapping = Deployment()
        for operation in name_keyed_by_cost(weights):
            server = budgets.neediest()
            mapping.assign(operation, server)
            budgets.charge(server, weights.weighted_cycles(operation))
        return mapping


class NameKeyedTieResolver(FairLoadTieResolver):
    """:class:`FairLoadTieResolver` over names and a name-keyed mapping."""

    def _deploy(self, context: ProblemContext) -> Deployment:
        weights = NameKeyedWeights(context, self.uses_probability_weights)
        budgets = NameKeyedBudgets(weights)
        mapping = _name_keyed_start(self, context)
        pending = name_keyed_by_cost(weights)
        while pending:
            server = budgets.neediest()
            candidates = name_keyed_tied_prefix(pending, weights.weighted_cycles)
            best_operation = candidates[0]
            best_gain = name_keyed_gain(weights, best_operation, server, mapping)
            for operation in candidates[1:]:
                gain = name_keyed_gain(weights, operation, server, mapping)
                if gain > best_gain:
                    best_gain = gain
                    best_operation = operation
            mapping.assign(best_operation, server)
            budgets.charge(server, weights.weighted_cycles(best_operation))
            pending.remove(best_operation)
        return mapping


class NameKeyedTieResolver2(FairLoadTieResolver2):
    """:class:`FairLoadTieResolver2` over names and a name-keyed mapping."""

    def _deploy(self, context: ProblemContext) -> Deployment:
        weights = NameKeyedWeights(context, self.uses_probability_weights)
        budgets = NameKeyedBudgets(weights)
        mapping = _name_keyed_start(self, context)
        pending = name_keyed_by_cost(weights)
        while pending:
            operation, server = _name_keyed_best_pair(
                weights, budgets, pending, mapping
            )
            mapping.assign(operation, server)
            budgets.charge(server, weights.weighted_cycles(operation))
            pending.remove(operation)
        return mapping


class NameKeyedMergeMessages(FairLoadMergeMessages):
    """:class:`FairLoadMergeMessages` over names and a name-keyed mapping."""

    def _constraining_neighbor(self, weights, operation, threshold):
        workflow = weights.workflow
        best_in = None
        for predecessor in workflow.predecessors(operation):
            size = weights.weighted_message_bits(predecessor, operation)
            if best_in is None or size > best_in[0]:
                best_in = (size, predecessor)
        best_out = None
        for successor in workflow.successors(operation):
            size = weights.weighted_message_bits(operation, successor)
            if best_out is None or size > best_out[0]:
                best_out = (size, successor)
        in_large = best_in is not None and best_in[0] >= threshold
        out_large = best_out is not None and best_out[0] >= threshold
        if in_large and out_large:
            return best_in[1] if best_in[0] >= best_out[0] else best_out[1]
        if in_large:
            return best_in[1]
        if out_large:
            return best_out[1]
        return None

    def _deploy(self, context: ProblemContext) -> Deployment:
        weights = NameKeyedWeights(context, self.uses_probability_weights)
        budgets = NameKeyedBudgets(weights)
        mapping = _name_keyed_start(self, context)
        pending = name_keyed_by_cost(weights)
        sizes = sorted(
            (
                weights.weighted_message_bits(*message.pair)
                for message in context.workflow.messages
            ),
            reverse=True,
        )
        threshold = (
            sizes[int((len(sizes) - 1) * self.big_fraction)]
            if sizes
            else float("inf")
        )
        while pending:
            operation, server = _name_keyed_best_pair(
                weights, budgets, pending, mapping
            )
            neighbor = self._constraining_neighbor(weights, operation, threshold)
            if neighbor is not None and mapping.get(neighbor) is not None:
                server = mapping.server_of(neighbor)
            mapping.assign(operation, server)
            budgets.charge(server, weights.weighted_cycles(operation))
            pending.remove(operation)
        return mapping


class NameKeyedGroups:
    """HOLM's operation groups over names: sets, cycles and ranks."""

    def __init__(self, weights: NameKeyedWeights):
        self._weights = weights
        self._members: dict[int, set[str]] = {}
        self._cycles: dict[int, float] = {}
        self._group_of: dict[str, int] = {}
        self._rank: dict[str, int] = {}
        for i, name in enumerate(weights.workflow.operation_names):
            self._members[i] = {name}
            self._cycles[i] = weights.weighted_cycles(name)
            self._group_of[name] = i
            self._rank[name] = i

    def same_group(self, a: str, b: str) -> bool:
        return self._group_of.get(a) == self._group_of.get(b) and a in self._group_of

    def merge(self, a: str, b: str) -> None:
        ga, gb = self._group_of[a], self._group_of[b]
        if ga == gb:
            return
        if len(self._members[ga]) < len(self._members[gb]):
            ga, gb = gb, ga
        self._members[ga] |= self._members[gb]
        self._cycles[ga] += self._cycles[gb]
        for name in self._members[gb]:
            self._group_of[name] = ga
        del self._members[gb]
        del self._cycles[gb]

    def remove_operation(self, operation: str) -> None:
        group_id = self._group_of.pop(operation)
        members = self._members[group_id]
        members.discard(operation)
        self._cycles[group_id] -= self._weights.weighted_cycles(operation)
        if not members:
            del self._members[group_id]
            del self._cycles[group_id]

    def remove_group(self, group_id: int) -> set[str]:
        members = self._members.pop(group_id)
        del self._cycles[group_id]
        for name in members:
            del self._group_of[name]
        return members

    def heaviest(self) -> int:
        return min(
            self._members,
            key=lambda gid: (
                -self._cycles[gid],
                min(self._rank[name] for name in self._members[gid]),
            ),
        )

    def cycles(self, group_id: int) -> float:
        return self._cycles[group_id]


class NameKeyedHeavyOps(HeavyOpsLargeMsgs):
    """:class:`HeavyOpsLargeMsgs` over names and a name-keyed mapping."""

    def _deploy(self, context: ProblemContext) -> Deployment:
        workflow = context.workflow
        weights = NameKeyedWeights(context, self.uses_probability_weights)
        budgets = NameKeyedBudgets(weights)
        groups = NameKeyedGroups(weights)
        mapping = Deployment()
        bus = self._bus(context.network)
        messages = sorted(
            workflow.messages,
            key=lambda m: -weights.weighted_message_bits(*m.pair),
        )

        def active_top_message():
            while messages and all(end in mapping for end in messages[0].pair):
                messages.pop(0)
            for message in messages:
                src_assigned = message.source in mapping
                dst_assigned = message.target in mapping
                if src_assigned and dst_assigned:
                    continue
                if (
                    not src_assigned
                    and not dst_assigned
                    and groups.same_group(message.source, message.target)
                ):
                    continue
                return message
            return None

        unassigned = len(workflow)
        while unassigned:
            heaviest = groups.heaviest()
            server = budgets.neediest()
            top = active_top_message()
            message_is_large = False
            if top is not None:
                group_time = (
                    groups.cycles(heaviest) / context.network.server(server).power_hz
                )
                transfer_time = 0.0
                if bus is not None:
                    speed, propagation = bus
                    bits = weights.weighted_message_bits(*top.pair)
                    transfer_time = bits / speed + propagation
                message_is_large = transfer_time >= group_time
            if top is None or not message_is_large:
                for name in sorted(groups.remove_group(heaviest)):
                    mapping.assign(name, server)
                    budgets.charge(server, weights.weighted_cycles(name))
                    unassigned -= 1
                continue
            src_assigned = top.source in mapping
            dst_assigned = top.target in mapping
            if src_assigned and not dst_assigned:
                host = mapping.server_of(top.source)
                mapping.assign(top.target, host)
                budgets.charge(host, weights.weighted_cycles(top.target))
                groups.remove_operation(top.target)
                unassigned -= 1
            elif dst_assigned and not src_assigned:
                host = mapping.server_of(top.target)
                mapping.assign(top.source, host)
                budgets.charge(host, weights.weighted_cycles(top.source))
                groups.remove_operation(top.source)
                unassigned -= 1
            else:
                groups.merge(top.source, top.target)
        return mapping


# ----------------------------------------------------------------------
# the worst-fit fill, name-keyed
# ----------------------------------------------------------------------
def worst_fit_by_name(
    cost_model: CostModel, kept: Deployment, pending
) -> Deployment:
    """The failover/incremental fill as both modules wrote it over names.

    Budgets start at each network server's ``Ideal_Cycles`` minus the
    weighted cycles *kept* hosts there (servers outside the network get
    none); *pending* operations of the workflow go heaviest raw cycles
    first to the largest budget, network order on ties, and charge their
    weighted cycles.
    """
    workflow = cost_model.workflow
    server_names = cost_model.network.server_names

    def weighted(operation: str) -> float:
        return (
            workflow.operation(operation).cycles
            * cost_model.node_probability(operation)
        )

    placed = kept.copy()
    budgets = {
        server: cost_model.ideal_cycles(server)
        - ordered_sum(weighted(op) for op in kept.operations_on(server))
        for server in server_names
    }
    rank = {name: i for i, name in enumerate(server_names)}
    ordered = [op for op in pending if op in workflow]
    ordered.sort(key=lambda op: -workflow.operation(op).cycles)
    for operation in ordered:
        target = max(budgets, key=lambda s: (budgets[s], -rank[s]))
        placed.assign(operation, target)
        budgets[target] -= weighted(operation)
    return placed


# ----------------------------------------------------------------------
# fleet documents, decoded by hand
# ----------------------------------------------------------------------
def _require(document: Mapping[str, Any], field: str, expected: str) -> Any:
    try:
        return document[field]
    except (KeyError, TypeError):
        raise ValidationError(
            f"{expected} document is missing required field {field!r}"
        ) from None


def hand_event_from_dict(document: Mapping[str, Any]) -> FleetEvent:
    """The event decoder as written field by field, one branch per kind.

    The reference for :func:`repro.service.checkpoint.event_from_dict`:
    it accepts exactly the documents the hand decoder accepted. Its
    malformed values raise bare ``ValueError``/``TypeError``.
    """
    kind = _require(document, "kind", "event")
    if kind == DeployRequest.kind:
        return DeployRequest(
            tenant=str(_require(document, "tenant", "deploy event")),
            workflow=workflow_from_dict(
                _require(document, "workflow", "deploy event")
            ),
            algorithm=(
                str(document["algorithm"])
                if document.get("algorithm") is not None
                else None
            ),
        )
    if kind == UndeployRequest.kind:
        return UndeployRequest(
            tenant=str(_require(document, "tenant", "undeploy event"))
        )
    if kind == ServerFailed.kind:
        return ServerFailed(
            server=str(_require(document, "server", "server-failed event"))
        )
    if kind == ServerJoined.kind:
        return ServerJoined(
            server=str(_require(document, "server", "server-joined event")),
            power_hz=float(
                _require(document, "power_hz", "server-joined event")
            ),
            link_speed_bps=float(
                _require(document, "link_speed_bps", "server-joined event")
            ),
            propagation_s=float(document.get("propagation_s", 0.0)),
        )
    if kind == WorkloadDrift.kind:
        return WorkloadDrift(
            tenant=str(_require(document, "tenant", "workload-drift event")),
            workflow=workflow_from_dict(
                _require(document, "workflow", "workload-drift event")
            ),
        )
    if kind == CapacityDrift.kind:
        return CapacityDrift(
            server=str(_require(document, "server", "capacity-drift event")),
            power_hz=float(
                _require(document, "power_hz", "capacity-drift event")
            ),
        )
    if kind == LinkFailure.kind:
        return LinkFailure(
            a=str(_require(document, "a", "link-failed event")),
            b=str(_require(document, "b", "link-failed event")),
        )
    if kind == LinkDegrade.kind:
        return LinkDegrade(
            a=str(_require(document, "a", "link-degraded event")),
            b=str(_require(document, "b", "link-degraded event")),
            speed_factor=float(
                _require(document, "speed_factor", "link-degraded event")
            ),
            propagation_factor=float(
                document.get("propagation_factor", 1.0)
            ),
        )
    if kind == RegionOutage.kind:
        return RegionOutage(
            region=str(_require(document, "region", "region-outage event"))
        )
    if kind == Tick.kind:
        return Tick()
    raise ValidationError(f"unknown fleet event kind {kind!r}")


def hand_migration_from_dict(
    document: Mapping[str, Any] | None,
) -> MigrationCostModel | None:
    """The migration-model decoder as written field by field."""
    if document is None:
        return None
    return MigrationCostModel(
        state_bits_per_cycle=float(
            document.get("state_bits_per_cycle", 0.0)
        ),
        state_bits_base=float(document.get("state_bits_base", 0.0)),
        downtime_s=float(document.get("downtime_s", 0.0)),
    )


def hand_config_from_dict(document: Mapping[str, Any]) -> FleetConfig:
    """The :class:`FleetConfig` decoder as written field by field.

    The transition-aware fields and the admission limit decode with
    their defaults when absent; every other field is required.
    """
    return FleetConfig(
        algorithm=str(_require(document, "algorithm", "fleet config")),
        admission_load_limit_s=(
            None
            if document.get("admission_load_limit_s") is None
            else float(document["admission_load_limit_s"])
        ),
        drift_threshold=float(
            _require(document, "drift_threshold", "fleet config")
        ),
        max_moves_per_rebalance=int(
            _require(document, "max_moves_per_rebalance", "fleet config")
        ),
        execution_weight=float(
            _require(document, "execution_weight", "fleet config")
        ),
        penalty_weight=float(
            _require(document, "penalty_weight", "fleet config")
        ),
        penalty_mode=str(_require(document, "penalty_mode", "fleet config")),
        seed=int(_require(document, "seed", "fleet config")),
        migration=hand_migration_from_dict(document.get("migration")),
        migration_weight=float(document.get("migration_weight", 0.0)),
        rebalance_cooldown_ticks=int(
            document.get("rebalance_cooldown_ticks", 0)
        ),
    )
