"""Worker-process entry points and the per-process instance cache.

What crosses the process boundary is deliberately small and dumb:

* an :class:`InstancePayload` -- the JSON-codec dicts of the workflow
  and network plus the cost-model knobs, fingerprinted so each worker
  process rebuilds (and compiles) an instance **once** and serves every
  later task for the same fingerprint from :data:`_MATERIALIZED`;
* a :class:`SearchTask` naming the algorithm (a picklable spec or
  instance), its pre-spawned seed, its budget share and the race's
  shared deadline -- never live domain objects.

The entry point is a module-level function (picklable by qualified
name under any ``multiprocessing`` start method) taking a task and
returning a plain picklable result object. A task shares nothing with
the other racers while it runs: it is a solo
:meth:`~repro.algorithms.base.DeploymentAlgorithm.deploy_with_report`
call.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import math
from dataclasses import dataclass
from typing import Any

from repro.algorithms.base import DeploymentAlgorithm
from repro.algorithms.runtime import SearchBudget, SearchReport
from repro.core.clock import MONOTONIC, Clock
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
    spawned per worker by the coordinator. ``deadline_at`` is the
    race's shared deadline as a reading of the racer's clock (``None``
    when the budget has no deadline).
    """

    index: int
    label: str
    payload: InstancePayload
    algorithm: "AlgorithmSpec | DeploymentAlgorithm"
    seed: Any
    budget: SearchBudget | None = None
    deadline_at: float | None = None


@dataclass(frozen=True)
class SearchResult:
    """What a :class:`SearchTask` sends back."""

    index: int
    label: str
    mapping: dict[str, str]
    value: float
    report: SearchReport | None


def run_search_task(task: SearchTask, clock: Clock = MONOTONIC) -> SearchResult:
    """Run one racer: a solo search under its slice and spawned seed.

    The slice's deadline is replaced by the time left until the race's
    shared ``deadline_at`` on *clock* (by default the monotonic clock,
    which every process of the machine shares). A racer that starts
    after the deadline still takes its first step -- the anytime
    contract -- and then stops with reason ``deadline``.
    """
    workflow, network, model = materialize(task.payload)
    algorithm = (
        task.algorithm.build()
        if isinstance(task.algorithm, AlgorithmSpec)
        else task.algorithm
    )
    budget = task.budget
    if task.deadline_at is not None:
        remaining = task.deadline_at - clock()
        # the smallest positive deadline fires right after the first step
        budget = dataclasses.replace(
            budget, deadline_s=max(remaining, math.ulp(0.0))
        )
    deployment, report = algorithm.deploy_with_report(
        workflow,
        network,
        cost_model=model,
        rng=coerce_rng(task.seed),
        budget=budget,
        clock=clock,
    )
    return SearchResult(
        index=task.index,
        label=task.label,
        mapping=deployment.as_dict(),
        value=model.objective(deployment),
        report=report,
    )
