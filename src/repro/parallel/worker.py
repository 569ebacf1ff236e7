"""Worker-process entry points and the per-process instance cache.

What crosses the process boundary is deliberately small and dumb:

* an :class:`InstancePayload` -- the JSON-codec dicts of the workflow
  and network plus the cost-model knobs, fingerprinted so each worker
  process rebuilds (and compiles) an instance **once** and serves every
  later task for the same fingerprint from :data:`_MATERIALIZED`;
* a :class:`SearchTask` naming the algorithm (a picklable spec or
  instance), its pre-spawned seed and its budget share -- never live
  domain objects.

The entry point is a module-level function (picklable by qualified
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

#: Cache bound: a worker process that serves races on many distinct
#: instances must not grow without limit; rebuilding after a clear is
#: cheap relative to search.
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


# ----------------------------------------------------------------------
# whole-search tasks (seeded restarts / portfolio racing)
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
    # pre-tripped when the run is already stopping
    cancel = CancelToken()
    if ledger.stop_requested:
        cancel.cancel(ledger.stop_reason)
    bridge = WorkerBridge(
        ledger,
        cancel,
        flush_every=task.flush_every,
        target_value=task.target_value,
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
