"""Incremental adaptation of deployments to workflow changes (§3.2).

Section 3.2 observes that "a small change to this setting (say, an
additional operation or server) may change the properties" of a good
deployment. In production nobody redeploys fifteen services because one
was added; this module provides the middle ground:

* :func:`patch_deployment` -- keep every existing assignment, place only
  the new operations (worst-fit against remaining capacity budgets:
  :func:`~repro.algorithms.graph_adapters.worst_fit`, which failover's
  orphan re-homing shares) and drop assignments of removed operations;
* :func:`adaptation_report` -- compare that patch against a full
  re-deployment with any algorithm: cost of each, and how many
  operations the full re-deployment would move (the churn the patch
  avoids).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.algorithms.base import DeploymentAlgorithm
from repro.algorithms.graph_adapters import worst_fit
from repro.core.cost import CostBreakdown, CostModel
from repro.core.mapping import Deployment
from repro.core.workflow import Workflow
from repro.network.topology import ServerNetwork

__all__ = ["patch_deployment", "AdaptationReport", "adaptation_report"]


def patch_deployment(
    new_workflow: Workflow,
    network: ServerNetwork,
    old_deployment: Deployment,
    cost_model: CostModel | None = None,
) -> Deployment:
    """Adapt *old_deployment* to *new_workflow* with minimal moves.

    Assignments for operations that still exist are kept verbatim;
    assignments for operations that disappeared are dropped; operations
    new to the workflow are placed heaviest-first on the server with the
    most remaining capacity-proportional budget.
    """
    if cost_model is None:
        cost_model = CostModel(new_workflow, network)
    kept = Deployment(
        {op: server for op, server in old_deployment if op in new_workflow}
    )
    additions = [op for op in new_workflow.operation_names if op not in kept]
    return worst_fit(cost_model.compiled, kept, additions)


@dataclass(frozen=True)
class AdaptationReport:
    """Patch-in-place vs full re-deployment after a workflow change.

    Attributes
    ----------
    patched, redeployed:
        The two candidate deployments.
    patched_cost, redeployed_cost:
        Their evaluations on the new workflow.
    moved_by_redeployment:
        Operations the full re-deployment places differently from the
        old mapping -- the churn the patch avoids (new operations are
        not counted as moves).
    """

    patched: Deployment
    redeployed: Deployment
    patched_cost: CostBreakdown
    redeployed_cost: CostBreakdown
    moved_by_redeployment: tuple[str, ...]

    @property
    def patch_overhead(self) -> float:
        """Relative objective overhead of patching vs re-deploying.

        0.05 means the minimal-churn patch is 5 % worse; negative values
        mean the patch actually beat the re-deployment.
        """
        baseline = self.redeployed_cost.objective
        if baseline <= 0:
            return 0.0
        return self.patched_cost.objective / baseline - 1.0


def adaptation_report(
    new_workflow: Workflow,
    network: ServerNetwork,
    old_deployment: Deployment,
    algorithm: DeploymentAlgorithm,
    rng=None,
) -> AdaptationReport:
    """Compare patching against re-deploying with *algorithm*."""
    cost_model = CostModel(new_workflow, network)
    patched = patch_deployment(
        new_workflow, network, old_deployment, cost_model=cost_model
    )
    redeployed = algorithm.deploy(
        new_workflow, network, cost_model=cost_model, rng=rng
    )
    moved = tuple(
        name
        for name in new_workflow.operation_names
        if old_deployment.get(name) is not None
        and redeployed.server_of(name) != old_deployment.get(name)
    )
    return AdaptationReport(
        patched=patched,
        redeployed=redeployed,
        patched_cost=cost_model.evaluate(patched),
        redeployed_cost=cost_model.evaluate(redeployed),
        moved_by_redeployment=moved,
    )
