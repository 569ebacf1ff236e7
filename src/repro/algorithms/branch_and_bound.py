"""Exact deployment by branch and bound (an extension beyond §3.1).

The paper's exhaustive algorithm enumerates all ``N**M`` mappings; this
solver finds the same optimum while pruning, extending the range of
instances where the true optimum is computable (used by the optimality-
gap benchmarks).

Search: operations are assigned in descending (weighted) cycle order;
each node of the search tree branches over the servers. A node is pruned
when an optimistic *lower bound* on the scalar objective already meets
the incumbent:

* **execution-time bound** -- the cost model's forward pass computed on
  the partial mapping with every unassigned operation optimistically
  placed on the fastest server and every message with an unassigned
  endpoint transferred for free;
* **fairness bound** -- a continuous water-filling relaxation: the
  remaining (weighted) cycles are spread fractionally over the least-
  loaded servers to minimise the deviation statistic; no integral
  completion can be fairer.

Both bounds are exact at the leaves, so the incumbent at exhaustion is
the global optimum (asserted against :class:`Exhaustive` in the test
suite). The incumbent is seeded with HeavyOps-LargeMsgs so pruning bites
immediately.

Every explored node is one :class:`~repro.algorithms.runtime.SearchStep`
on the shared runtime, which turns the exact solver into an *anytime*
one: under a deadline or evaluation budget it returns the best
incumbent found so far (optimal only at exhaustion -- check
``report.stop_reason``). The ``node_limit`` hard stop is unchanged:
exceeding it is still an error, whereas a budget is a graceful stop.
"""

from __future__ import annotations

from typing import Iterator

from repro.algorithms.base import (
    DeploymentAlgorithm,
    ProblemContext,
    register_algorithm,
)
from repro.algorithms.graph_adapters import WeightedGraph
from repro.algorithms.heavy_ops import HeavyOpsLargeMsgs
from repro.algorithms.runtime import SearchBudget, SearchStep
from repro.core.mapping import Deployment
from repro.core.workflow import NodeKind
from repro.exceptions import SearchSpaceTooLargeError
from repro.numeric import ordered_sum

__all__ = ["BranchAndBound"]

#: Safety valve: give up after this many search-tree nodes.
DEFAULT_NODE_LIMIT = 2_000_000


@register_algorithm
class BranchAndBound(DeploymentAlgorithm):
    """Optimal deployment with bound-based pruning.

    Parameters
    ----------
    node_limit:
        Maximum number of search-tree nodes before raising
        :class:`~repro.exceptions.SearchSpaceTooLargeError`. The explored
        count of the last run is exposed as :attr:`nodes_explored`.
    """

    name = "BranchAndBound"

    def __init__(self, node_limit: int = DEFAULT_NODE_LIMIT):
        # same contract as Exhaustive: a bad argument is AlgorithmError,
        # SearchSpaceTooLargeError is reserved for the search outcome
        self.node_limit = SearchBudget.validate_count(
            "node_limit", node_limit
        )
        self.nodes_explored = 0

    # ------------------------------------------------------------------
    # bounds
    # ------------------------------------------------------------------
    def _execution_lower_bound(
        self,
        context: ProblemContext,
        assignment: dict[str, str],
        order: tuple[str, ...],
        fastest_hz: float,
    ) -> float:
        """Optimistic ``Texecute`` of any completion of *assignment*.

        Mirrors :meth:`CostModel.execution_time`'s forward pass, but an
        unassigned operation runs on the fastest server and a message
        with an unassigned endpoint costs nothing. Both relaxations only
        lower the result, so the bound is sound; with a full assignment
        it equals the true execution time.
        """
        workflow = context.workflow
        cost_model = context.cost_model
        router = cost_model.router
        finish: dict[str, float] = {}
        for name in order:
            operation = workflow.operation(name)
            incoming = workflow.incoming(name)
            if not incoming:
                ready = 0.0
            else:
                arrivals = []
                for message in incoming:
                    source_server = assignment.get(message.source)
                    target_server = assignment.get(name)
                    if source_server is None or target_server is None:
                        delay = 0.0
                    else:
                        delay = router.transmission_time(
                            source_server, target_server, message.size_bits
                        )
                    arrivals.append(finish[message.source] + delay)
                if operation.kind is NodeKind.XOR_JOIN:
                    weights = [
                        cost_model.message_probability(m) for m in incoming
                    ]
                    total = ordered_sum(weights)
                    if total <= 0:
                        ready = max(arrivals)
                    else:
                        ready = (
                            ordered_sum(w * a for w, a in zip(weights, arrivals))
                            / total
                        )
                elif operation.kind is NodeKind.OR_JOIN:
                    ready = min(arrivals)
                else:
                    ready = max(arrivals)
            server = assignment.get(name)
            power = (
                context.network.server(server).power_hz
                if server is not None
                else fastest_hz
            )
            finish[name] = ready + operation.cycles / power
        return max(finish[name] for name in workflow.exits)

    def _penalty_lower_bound(
        self,
        context: ProblemContext,
        assigned_cycles: dict[str, float],
        remaining_cycles: float,
    ) -> float:
        """Water-filling relaxation of the fairness penalty.

        The remaining work is distributed *fractionally* over the least-
        loaded servers, levelling them to a common time ``t``; integral
        completions can only be less balanced.
        """
        network = context.network
        powers_by_load = sorted(
            (
                (assigned_cycles[name] / network.server(name).power_hz,
                 network.server(name).power_hz)
                for name in network.server_names
            ),
            key=lambda pair: pair[0],
        )
        budget = remaining_cycles
        # raise the lowest loads to a common level while budget lasts
        levelled = [load for load, _ in powers_by_load]
        powers = [power for _, power in powers_by_load]
        i = 0
        n = len(levelled)
        while budget > 0 and i < n - 1:
            current = levelled[i]
            nxt = levelled[i + 1]
            capacity = ordered_sum(powers[: i + 1])
            needed = (nxt - current) * capacity
            if needed >= budget:
                break
            budget -= needed
            for j in range(i + 1):
                levelled[j] = nxt
            i += 1
        if budget > 0:
            capacity = ordered_sum(powers[: i + 1])
            bump = budget / capacity
            for j in range(i + 1):
                levelled[j] += bump
        # the deviation statistic only reads the values; keys are dummies
        return context.cost_model._penalty_from_loads(
            {str(j): value for j, value in enumerate(levelled)}
        )

    # ------------------------------------------------------------------
    # search
    # ------------------------------------------------------------------
    def _deploy(self, context: ProblemContext) -> Deployment:
        return context.search(self._steps(context)).best

    def _steps(self, context: ProblemContext):
        workflow = context.workflow
        network = context.network
        cost_model = context.cost_model
        compiled = cost_model.compiled
        graph = WeightedGraph(compiled, self.uses_probability_weights)
        order = [compiled.op_names[op] for op in graph.by_cost()]
        op_cycles = dict(zip(compiled.op_names, graph.cycles))
        topo = workflow.topological_order()
        fastest_hz = max(server.power_hz for server in network)
        servers = list(network.server_names)

        # leaf evaluation prices the compiled server vector directly: one
        # leaf costs a forward pass, not two validation sweeps plus a
        # throwaway Deployment
        server_index = compiled.server_index

        def leaf_value(mapping: dict[str, str]) -> float:
            return compiled.components(
                [server_index[mapping[name]] for name in compiled.op_names]
            )[2]

        incumbent = HeavyOpsLargeMsgs().deploy(
            workflow, network, cost_model=cost_model, rng=context.rng
        )
        best_mapping = incumbent.as_dict()
        best_value = leaf_value(best_mapping)

        assignment: dict[str, str] = {}
        assigned_cycles = {name: 0.0 for name in servers}
        total_cycles = ordered_sum(graph.cycles)
        self.nodes_explored = 0

        # called by the runtime only at strict improvements, which happen
        # synchronously at the yield that carried the improved value --
        # best_mapping is exactly the mapping that scored best_value then
        def snapshot() -> Deployment:
            return Deployment(dict(best_mapping))

        yield SearchStep(best_value, snapshot, evals=1)

        # the shared objective combine (migration of still-unassigned
        # operations is unknown, and >= 0, so the two-term value stays a
        # valid lower bound for transition-aware objectives too)

        def bound(remaining: float) -> float:
            execution = self._execution_lower_bound(
                context, assignment, topo, fastest_hz
            )
            penalty = self._penalty_lower_bound(
                context, assigned_cycles, remaining
            )
            return compiled.objective_value(execution, penalty)

        def recurse(index: int, remaining: float) -> Iterator[SearchStep]:
            nonlocal best_value, best_mapping
            self.nodes_explored += 1
            if self.nodes_explored > self.node_limit:
                raise SearchSpaceTooLargeError(
                    f"branch-and-bound exceeded {self.node_limit} nodes; "
                    f"raise node_limit or use a heuristic"
                )
            if index == len(order):
                value = leaf_value(assignment)
                if value < best_value:
                    best_value = value
                    best_mapping = dict(assignment)
                    yield SearchStep(value, snapshot, evals=1, accepted=1)
                else:
                    yield SearchStep(
                        best_value, snapshot, evals=1, rejected=1
                    )
                return
            yield SearchStep(best_value, snapshot, evals=1)
            operation = order[index]
            cycles = op_cycles[operation]
            for server in servers:
                assignment[operation] = server
                assigned_cycles[server] += cycles
                if bound(remaining - cycles) < best_value - 1e-15:
                    yield from recurse(index + 1, remaining - cycles)
                assigned_cycles[server] -= cycles
                del assignment[operation]

        yield from recurse(0, total_cycles)
