"""Server-failure analysis (motivated by section 2.1).

The motivating example asks for deployments that "load each server in a
fair way, so that whenever additional workflows are deployed, or a
server fails, a reasonable load scale-up is still possible." This module
quantifies that: kill one server, re-home the operations it hosted, and
measure how much the survivors' loads and the workflow's execution time
degrade.

Two recovery policies:

* :func:`replace_orphans` -- keep every surviving assignment and re-home
  only the orphaned operations, worst-fit against the survivors'
  remaining capacity-proportional budgets (minimal disruption -- what an
  operator does under pressure);
* full re-deployment -- run any registered algorithm on the shrunken
  network (maximal quality, maximal churn); pass an algorithm to
  :func:`analyze_failure` to use it instead.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.algorithms.base import DeploymentAlgorithm
from repro.algorithms.graph_adapters import worst_fit
from repro.core.cost import CostBreakdown, CostModel
from repro.core.mapping import Deployment
from repro.core.workflow import Workflow
from repro.exceptions import UnknownServerError
from repro.network.topology import ServerNetwork, remove_server
from repro.tables import TextTable, format_seconds

__all__ = [
    "replace_orphans",
    "analyze_failure",
    "FailureReport",
    "failover_table",
]


def replace_orphans(
    workflow: Workflow,
    survivor_network: ServerNetwork,
    deployment: Deployment,
    failed_server: str,
    cost_model: CostModel | None = None,
) -> Deployment:
    """Re-home the failed server's operations; keep everything else.

    Orphans are assigned heaviest-first to the surviving server with the
    most remaining capacity-proportional budget, counting the work it
    already hosts -- Fair Load's worst-fit rule restricted to the orphans
    (:func:`~repro.algorithms.graph_adapters.worst_fit`).
    """
    if cost_model is None:
        cost_model = CostModel(workflow, survivor_network)
    kept = Deployment(
        {op: server for op, server in deployment if server != failed_server}
    )
    orphans = deployment.operations_on(failed_server)
    return worst_fit(cost_model.compiled, kept, orphans)


@dataclass(frozen=True)
class FailureReport:
    """Impact of one server failure on one deployment.

    Attributes
    ----------
    failed_server:
        The server that was killed.
    orphaned_operations:
        Operations that had to move.
    before, after:
        Cost breakdowns on the original and shrunken networks.
    recovered:
        The post-failure deployment.
    """

    failed_server: str
    orphaned_operations: tuple[str, ...]
    before: CostBreakdown
    after: CostBreakdown
    recovered: Deployment

    @property
    def execution_scale_up(self) -> float:
        """``Texecute`` after / before (1.0 = no degradation)."""
        if self.before.execution_time <= 0:
            return 1.0
        return self.after.execution_time / self.before.execution_time

    @property
    def peak_load_scale_up(self) -> float:
        """Busiest-server load after / before -- §2.1's "load scale-up"."""
        peak_before = max(self.before.loads.values())
        if peak_before <= 0:
            return 1.0
        return max(self.after.loads.values()) / peak_before


def analyze_failure(
    workflow: Workflow,
    network: ServerNetwork,
    deployment: Deployment,
    failed_server: str,
    algorithm: DeploymentAlgorithm | None = None,
    rng=None,
) -> FailureReport:
    """Kill *failed_server* and measure the recovery.

    With *algorithm* ``None``, recovery keeps survivors in place
    (:func:`replace_orphans`); otherwise the whole workflow is
    re-deployed from scratch on the shrunken network.
    """
    if failed_server not in network:
        raise UnknownServerError(
            f"no server {failed_server!r} in network {network.name!r}"
        )
    before = CostModel(workflow, network).evaluate(deployment)
    survivor_network = remove_server(network, failed_server)
    survivor_model = CostModel(workflow, survivor_network)
    if algorithm is None:
        recovered = replace_orphans(
            workflow, survivor_network, deployment, failed_server,
            cost_model=survivor_model,
        )
    else:
        recovered = algorithm.deploy(
            workflow, survivor_network, cost_model=survivor_model, rng=rng
        )
    after = survivor_model.evaluate(recovered)
    return FailureReport(
        failed_server=failed_server,
        orphaned_operations=deployment.operations_on(failed_server),
        before=before,
        after=after,
        recovered=recovered,
    )


def failover_table(
    workflow: Workflow,
    network: ServerNetwork,
    deployment: Deployment,
    algorithm: DeploymentAlgorithm | None = None,
) -> TextTable:
    """One row per possible single-server failure."""
    table = TextTable(
        [
            "failed_server",
            "orphans",
            "Texecute_after",
            "exec_scale_up",
            "peak_load_scale_up",
        ],
        title=f"single-failure impact on {workflow.name!r}",
    )
    for server in network.server_names:
        report = analyze_failure(
            workflow, network, deployment, server, algorithm=algorithm
        )
        table.add_row(
            [
                server,
                len(report.orphaned_operations),
                format_seconds(report.after.execution_time),
                f"{report.execution_scale_up:.2f}x",
                f"{report.peak_load_scale_up:.2f}x",
            ]
        )
    return table
