"""Algorithm *Fair Load* (section 3.3, appendix pseudo-code).

Tuned purely for load distribution: compute each server's
``Ideal_Cycles`` (its capacity-proportional share of the total work),
sort operations by cost descending, and repeatedly assign the heaviest
remaining operation to the server that is currently furthest below its
ideal share -- "a variant of the worst-fit algorithm for the bin packing
problem". Communication is ignored entirely; the tie-resolver and
merge-messages extensions add it back.

On random graphs the paper keeps Fair Load "exactly the same", i.e. it
does **not** weight cycles by execution probability
(:attr:`FairLoad.uses_probability_weights` is False).
"""

from __future__ import annotations

from repro.algorithms.base import (
    DeploymentAlgorithm,
    ProblemContext,
    register_algorithm,
)
from repro.algorithms.graph_adapters import ServerBudgets, WeightedGraph
from repro.core.mapping import Deployment

__all__ = ["FairLoad"]


@register_algorithm
class FairLoad(DeploymentAlgorithm):
    """Worst-fit assignment of operations to capacity-proportional budgets."""

    name = "FairLoad"
    uses_probability_weights = False  # section 3.4: FL stays exactly the same

    def _deploy(self, context: ProblemContext) -> Deployment:
        graph = WeightedGraph(context.compiled, self.uses_probability_weights)
        order = graph.by_cost()
        budgets = ServerBudgets(graph.ideal_cycles)
        servers = budgets.place(graph.cycles[op] for op in order)
        return graph.deployment(dict(zip(order, servers)), order)
