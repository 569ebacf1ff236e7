"""Worker-process entry points and the per-process instance cache.

What crosses the process boundary is deliberately small and dumb:

* an :class:`InstancePayload` -- the JSON-codec dicts of the workflow
  and network plus the cost-model knobs, fingerprinted so each worker
  process rebuilds (and compiles) an instance **once** and serves every
  later task for the same fingerprint from :data:`_MATERIALIZED`;
* task dataclasses whose per-round fields are integer indices into the
  worker's own :class:`~repro.core.compiled.CompiledInstance` -- genome
  populations as server-index tuples, operation partitions as op-index
  tuples -- never live domain objects.

Every entry point is a module-level function (picklable by qualified
name under any ``multiprocessing`` start method) taking ``(task,
ledger)`` and returning a plain picklable result object. Budget
accounting and cooperative cancellation run through the
:class:`~repro.parallel.budget.WorkerBridge`.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from typing import Any

from repro.algorithms.base import DeploymentAlgorithm
from repro.algorithms.runtime import CancelToken, SearchBudget, SearchReport
from repro.core.clock import Clock
from repro.core.cost import CostModel
from repro.core.incremental import MoveEvaluator
from repro.core.mapping import Deployment
from repro.core.rng import coerce_rng
from repro.core.workflow import Workflow
from repro.io.json_codec import (
    network_from_dict,
    network_to_dict,
    workflow_from_dict,
    workflow_to_dict,
)
from repro.network.topology import ServerNetwork
from repro.parallel.budget import (
    DEFAULT_FLUSH_EVERY,
    STOP_TARGET,
    BudgetLedger,
    WorkerBridge,
)
from repro.parallel.specs import AlgorithmSpec

__all__ = [
    "InstancePayload",
    "payload_from",
    "materialize",
    "SearchTask",
    "SearchResult",
    "run_search_task",
    "IslandTask",
    "IslandResult",
    "run_island_task",
    "PartitionTask",
    "PartitionResult",
    "run_partition_scan",
]


# ----------------------------------------------------------------------
# instance payloads
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class InstancePayload:
    """A problem instance in wire form (see module docs).

    ``key`` is a content fingerprint: workers use it to cache the
    rebuilt (workflow, network, cost model) triple, and equal instances
    shipped by different callers share one cache entry.
    """

    key: str
    workflow: dict
    network: dict
    execution_weight: float
    penalty_weight: float
    penalty_mode: str
    use_probabilities: bool | None


def payload_from(
    workflow: Workflow,
    network: ServerNetwork,
    cost_model: CostModel | None = None,
) -> InstancePayload:
    """Encode an instance (and its cost-model knobs) for shipping."""
    if cost_model is None:
        cost_model = CostModel(workflow, network)
    workflow_doc = workflow_to_dict(workflow)
    network_doc = network_to_dict(network)
    knobs = (
        cost_model.execution_weight,
        cost_model.penalty_weight,
        cost_model.penalty_mode,
        cost_model.use_probabilities,
    )
    digest = hashlib.sha1(
        json.dumps(
            [workflow_doc, network_doc, knobs], sort_keys=True
        ).encode()
    ).hexdigest()
    return InstancePayload(
        key=digest,
        workflow=workflow_doc,
        network=network_doc,
        execution_weight=cost_model.execution_weight,
        penalty_weight=cost_model.penalty_weight,
        penalty_mode=cost_model.penalty_mode,
        use_probabilities=cost_model.use_probabilities,
    )


#: Per-process cache: payload fingerprint -> (workflow, network, model).
_MATERIALIZED: dict[str, tuple[Workflow, ServerNetwork, CostModel]] = {}

#: Cache bound: a long-lived worker pool serving many distinct
#: instances (the fleet controller across joins/failures) must not grow
#: without limit; rebuilding after a clear is cheap relative to search.
_CACHE_LIMIT = 32


def materialize(
    payload: InstancePayload,
) -> tuple[Workflow, ServerNetwork, CostModel]:
    """Rebuild (once per process per fingerprint) the instance triple."""
    cached = _MATERIALIZED.get(payload.key)
    if cached is not None:
        return cached
    workflow = workflow_from_dict(payload.workflow)
    network = network_from_dict(payload.network)
    model = CostModel(
        workflow,
        network,
        execution_weight=payload.execution_weight,
        penalty_weight=payload.penalty_weight,
        penalty_mode=payload.penalty_mode,
        use_probabilities=payload.use_probabilities,
    )
    if len(_MATERIALIZED) >= _CACHE_LIMIT:
        _MATERIALIZED.clear()
    _MATERIALIZED[payload.key] = (workflow, network, model)
    return workflow, network, model


def _bridged_cancel(
    ledger: BudgetLedger,
    flush_every: int,
    target_value: float | None,
) -> tuple[CancelToken, WorkerBridge]:
    """A cancel token pre-tripped if the run is already stopping, plus
    its ledger bridge."""
    cancel = CancelToken()
    if ledger.stop_requested:
        cancel.cancel(ledger.stop_reason)
    bridge = WorkerBridge(
        ledger, cancel, flush_every=flush_every, target_value=target_value
    )
    return cancel, bridge


# ----------------------------------------------------------------------
# whole-search tasks (restarts / portfolio racing)
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class SearchTask:
    """One complete algorithm run assigned to a worker.

    ``algorithm`` is either an :class:`~repro.parallel.specs.
    AlgorithmSpec` (built in the worker) or a ready picklable
    :class:`~repro.algorithms.base.DeploymentAlgorithm` instance (for
    configured variants the spec grammar cannot express). ``seed`` is
    the value fed to :func:`~repro.core.rng.coerce_rng` -- already
    spawned per worker by the coordinator.
    """

    index: int
    label: str
    payload: InstancePayload
    algorithm: "AlgorithmSpec | DeploymentAlgorithm"
    seed: Any
    budget: SearchBudget | None = None
    target_value: float | None = None
    flush_every: int = DEFAULT_FLUSH_EVERY


@dataclass(frozen=True)
class SearchResult:
    """What a :class:`SearchTask` sends back."""

    index: int
    label: str
    mapping: dict[str, str]
    value: float
    report: SearchReport | None


def run_search_task(
    task: SearchTask,
    ledger: BudgetLedger,
    clock: Clock | None = None,
) -> SearchResult:
    """Run one algorithm under the shared ledger; always returns a
    valid deployment (the anytime contract survives pre-cancellation:
    the first step's starting state is still produced)."""
    workflow, network, model = materialize(task.payload)
    algorithm = (
        task.algorithm.build()
        if isinstance(task.algorithm, AlgorithmSpec)
        else task.algorithm
    )
    cancel, bridge = _bridged_cancel(
        ledger, task.flush_every, task.target_value
    )
    try:
        deployment, report = algorithm.deploy_with_report(
            workflow,
            network,
            cost_model=model,
            rng=coerce_rng(task.seed),
            budget=task.budget,
            cancel=cancel,
            clock=clock,
            on_progress=bridge,
        )
    finally:
        # flush even when the search raises: the ledger must account
        # for the evaluations a crashed worker already spent
        bridge.finish()
    if report is not None:
        bridge.finish(report.evaluations)
    value = model.objective(deployment)
    ledger.record(0 if report is not None else 1)
    if task.target_value is not None and value <= task.target_value:
        # greedy algorithms never fire on_progress; check their result
        ledger.request_stop(STOP_TARGET)
    return SearchResult(
        index=task.index,
        label=task.label,
        mapping=deployment.as_dict(),
        value=value,
        report=report,
    )


# ----------------------------------------------------------------------
# GA island rounds
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class IslandTask:
    """One island evolving for one migration round.

    ``population`` is the resume state -- server-*index* genomes from
    the previous round (``None`` on round zero, where the island seeds
    itself: heuristics plus random fill, exactly like the serial GA).
    """

    index: int
    payload: InstancePayload
    seed: Any
    generations: int
    ga_params: tuple[tuple[str, Any], ...]
    population: tuple[tuple[int, ...], ...] | None = None
    budget: SearchBudget | None = None
    target_value: float | None = None
    flush_every: int = DEFAULT_FLUSH_EVERY


@dataclass(frozen=True)
class IslandResult:
    """Round outcome: winner plus the resume state for migration."""

    index: int
    mapping: dict[str, str]
    value: float
    report: SearchReport
    population: tuple[tuple[int, ...], ...]
    objectives: tuple[float, ...]


def run_island_task(
    task: IslandTask,
    ledger: BudgetLedger,
    clock: Clock | None = None,
) -> IslandResult:
    """Evolve one island for ``task.generations`` generations."""
    from repro.algorithms.genetic import GeneticAlgorithm

    workflow, network, model = materialize(task.payload)
    compiled = model.compiled
    server_names = compiled.server_names
    initial = None
    if task.population is not None:
        initial = [
            tuple(server_names[index] for index in genome)
            for genome in task.population
        ]
    captured: dict[str, Any] = {}

    def sink(population, objectives):
        captured["population"] = population
        captured["objectives"] = objectives

    params = dict(task.ga_params)
    params["generations"] = task.generations
    algorithm = GeneticAlgorithm(
        initial_population=initial, population_sink=sink, **params
    )
    cancel, bridge = _bridged_cancel(
        ledger, task.flush_every, task.target_value
    )
    try:
        deployment, report = algorithm.deploy_with_report(
            workflow,
            network,
            cost_model=model,
            rng=coerce_rng(task.seed),
            budget=task.budget,
            cancel=cancel,
            clock=clock,
            on_progress=bridge,
        )
    finally:
        # a crashed island must still account for its spent evaluations
        bridge.finish()
    bridge.finish(report.evaluations)
    value = model.objective(deployment)
    if task.target_value is not None and value <= task.target_value:
        ledger.request_stop(STOP_TARGET)
    server_index = compiled.server_index
    population = tuple(
        tuple(server_index[name] for name in genome)
        for genome in captured["population"]
    )
    return IslandResult(
        index=task.index,
        mapping=deployment.as_dict(),
        value=value,
        report=report,
        population=population,
        objectives=tuple(captured["objectives"]),
    )


# ----------------------------------------------------------------------
# partitioned-neighbourhood hill-climbing scans
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class PartitionTask:
    """One worker's share of a cooperative best-improvement sweep.

    ``servers`` is the current trajectory state (server index per
    operation, workflow order); ``operations`` the op indices this
    worker scans. The worker prices every single-operation move of its
    partition and reports its best strict improvement.
    """

    index: int
    payload: InstancePayload
    servers: tuple[int, ...]
    operations: tuple[int, ...]
    flush_every: int = DEFAULT_FLUSH_EVERY


@dataclass(frozen=True)
class PartitionResult:
    """Best move found in one partition (``move is None``: no
    improvement in this partition)."""

    index: int
    evaluations: int
    move: tuple[int, int] | None
    value: float


def run_partition_scan(
    task: PartitionTask,
    ledger: BudgetLedger,
    clock: Clock | None = None,
) -> PartitionResult:
    """Scan one partition of the move neighbourhood incrementally."""
    _, _, model = materialize(task.payload)
    compiled = model.compiled
    op_names = compiled.op_names
    server_names = compiled.server_names
    deployment = Deployment(
        {
            op_names[op]: server_names[server]
            for op, server in enumerate(task.servers)
        }
    )
    evaluator = MoveEvaluator(model, deployment)
    current_value = evaluator.objective
    best_move: tuple[int, int] | None = None
    best_value = current_value
    evaluations = 0
    unflushed = 0
    try:
        for op in task.operations:
            if ledger.stop_requested:
                break
            original = task.servers[op]
            operation_name = op_names[op]
            for server, server_name in enumerate(server_names):
                if server == original:
                    continue
                value = evaluator.propose_value(operation_name, server_name)
                evaluations += 1
                unflushed += 1
                if value < best_value:
                    best_value = value
                    best_move = (op, server)
            if unflushed >= task.flush_every:
                ledger.record(unflushed)
                unflushed = 0
    finally:
        # the tail delta must land even when a proposal raises, or the
        # global accounting under-counts after a crashed worker
        ledger.record(unflushed)
    return PartitionResult(
        index=task.index,
        evaluations=evaluations,
        move=best_move,
        value=best_value,
    )
