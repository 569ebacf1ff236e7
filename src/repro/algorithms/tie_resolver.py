"""The tie-resolver extensions of Fair Load (section 3.3, Figs. 4-5).

*Fair Load -- Tie Resolver for Cycles* (FLTR) keeps Fair Load's basic
principle but, whenever several operations tie for the heaviest remaining
cost, picks the one whose deployment to the chosen server saves the most
communication (bytes kept off the bus), using the
``Gain_Of_Operation_At_Server`` function of Fig. 5.

*Fair Load -- Tie Resolver for Cycles and Servers* (FLTR2) also widens the
server side: when several servers tie for the largest remaining
``Ideal_Cycles`` budget, every (tied operation, tied server) combination
is scored and the best gain wins.

Both algorithms require the mapping to be *initialised randomly* -- the
paper notes that otherwise the first gain evaluations would see no
neighbours and return 0. Unassigned operations therefore sit at a random
server until their real assignment replaces it, and gains are computed
against this mixed mapping exactly as in the pseudo-code.
"""

from __future__ import annotations

from typing import Callable, Sequence

from repro.algorithms.base import (
    DeploymentAlgorithm,
    ProblemContext,
    register_algorithm,
)
from repro.algorithms.graph_adapters import (
    TIE_RELATIVE_TOLERANCE,
    UNPLACED,
    ServerBudgets,
    WeightedGraph,
    gain_of_operation_at_servers,
)
from repro.core.mapping import Deployment

__all__ = ["FairLoadTieResolver", "FairLoadTieResolver2", "tied_prefix"]


def tied_prefix(
    ordered: Sequence,
    key: Callable[[object], float],
    tolerance: float = TIE_RELATIVE_TOLERANCE,
) -> list:
    """Leading run of *ordered* whose key ties the first element's key.

    *ordered* is sorted by *key* descending, so the run ends at the
    first element that does not tie.
    """
    if not ordered:
        return []
    top = key(ordered[0])
    bound = tolerance * max(abs(top), 1.0)
    run = []
    for item in ordered:
        if abs(key(item) - top) > bound:
            break
        run.append(item)
    return run


def best_pair(
    graph: WeightedGraph,
    pending: list[int],
    servers: list[int],
    targets: list[int],
) -> tuple[int, int]:
    """The tied pending operation and *targets* server of largest gain.

    The first such pair, operations outer and servers inner.
    """
    best = None
    best_gain = 0.0
    for operation in tied_prefix(pending, graph.cycles.__getitem__):
        gains = gain_of_operation_at_servers(graph, operation, servers)
        for server in targets:
            gain = gains.get(server, 0.0)
            if best is None or gain > best_gain:
                best, best_gain = (operation, server), gain
    return best


def place_by_gain(
    context: ProblemContext,
    graph: WeightedGraph,
    random_start: bool,
    choose: Callable[..., tuple[int, int]],
) -> Deployment:
    """The loop of the tie resolvers: place one pending operation a step.

    The pending operations are ordered by cost, heaviest first;
    ``choose(graph, budgets, pending, servers)`` names each step's
    operation and server. With *random_start* every
    operation first sits at a random server -- ``Deployment.random``'s
    draws, one per operation in workflow order -- until it is placed.
    """
    compiled = context.compiled
    budgets = ServerBudgets(graph.ideal_cycles)
    if random_start:
        choices = range(compiled.num_servers)
        servers = [context.rng.choice(choices) for _ in range(compiled.num_ops)]
    else:
        servers = [UNPLACED] * compiled.num_ops
    pending = graph.by_cost()
    placed = []
    while pending:
        operation, server = choose(graph, budgets, pending, servers)
        servers[operation] = server
        budgets.charge(server, graph.cycles[operation])
        pending.remove(operation)
        placed.append(operation)
    return graph.deployment(servers, range(len(servers)) if random_start else placed)


@register_algorithm
class FairLoadTieResolver(DeploymentAlgorithm):
    """FLTR: Fair Load with gain-based resolution of operation ties.

    Parameters
    ----------
    random_start:
        Initialise the mapping randomly, as the paper requires ("or
        else, the first calls of function Gain_Of_Operation_At_Server
        would not return any gain at all"). ``False`` starts from an
        empty mapping instead -- gains then only see already-finalised
        neighbours -- which is the ablation DESIGN.md calls out.
    """

    name = "FL-TieResolver"

    def __init__(self, random_start: bool = True):
        self.random_start = random_start

    @staticmethod
    def _choose(graph, budgets, pending, servers) -> tuple[int, int]:
        """The best-gain tied operation, on the neediest server."""
        return best_pair(graph, pending, servers, [budgets.neediest()])

    def _deploy(self, context: ProblemContext) -> Deployment:
        graph = WeightedGraph(context.compiled, self.uses_probability_weights)
        return place_by_gain(context, graph, self.random_start, self._choose)


@register_algorithm
class FairLoadTieResolver2(FairLoadTieResolver):
    """FLTR2: gain-based resolution of both operation and server ties.

    Shares :class:`FairLoadTieResolver`'s ``random_start`` parameter.
    """

    name = "FL-TieResolver2"

    @staticmethod
    def _choose(graph, budgets, pending, servers) -> tuple[int, int]:
        """The best-gain pair of tied operations x tied servers."""
        return best_pair(graph, pending, servers, budgets.tied_with_neediest())
