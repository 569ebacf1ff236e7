"""Shared machinery adapting the Line--Bus greedies to random graphs.

Section 3.4 states that the Graph--Bus algorithms "are practically the
same" as their Line--Bus counterparts, with two modifications:

* an operation can receive (and send) more than one message, so the gain
  function sums over *all* graph neighbours instead of the two line
  neighbours of Fig. 5;
* costs are weighted by execution probability, because XOR decision
  nodes mean only a subset of the workflow runs per execution.

Both adaptations are centralised here, in operation and server index
space over the compiled IR: :class:`WeightedGraph` (the cycles, message
bits and ``Ideal_Cycles`` budgets a heuristic sees), the
:func:`gain_of_operation_at_servers` function (the generalised
``Gain_Of_Operation_At_Server`` of Fig. 5, at every server at once) and the :class:`ServerBudgets`
helper that tracks each server's remaining budget, which every
Fair-Load-family algorithm reads and decrements step by step. A
heuristic keeps its mapping as a server-index vector (``-1`` while an
operation is unplaced); names appear only in the returned deployment.

:meth:`ServerBudgets.place` is the one worst-fit fill (DESIGN §17): Fair
Load, :func:`worst_fit` and the fleet's orphan re-homing use it.
"""

from __future__ import annotations

import operator
from typing import Iterable, Mapping, Sequence

from repro.core.compiled import CompiledInstance
from repro.core.mapping import Deployment
from repro.numeric import ordered_sum

__all__ = [
    "WeightedGraph",
    "gain_of_operation_at_servers",
    "ServerBudgets",
    "worst_fit",
    "UNPLACED",
]

#: The server-vector entry of an operation not placed yet.
UNPLACED = -1

#: Relative tolerance when deciding that two costs/budgets "tie". The
#: paper compares exact integers (cycles); floating-point weighting makes
#: a small tolerance necessary.
TIE_RELATIVE_TOLERANCE = 1e-9


class WeightedGraph:
    """The workflow as the greedy heuristics see it, by operation index.

    With *weighted* (the algorithm's
    :attr:`~repro.algorithms.base.DeploymentAlgorithm.uses_probability_weights`)
    and a compiled instance that weights by probability, cycles and
    message bits are scaled by execution and send probabilities
    (section 3.4); otherwise they are the raw values times 1.0.

    Attributes
    ----------
    cycles:
        ``C(op)`` per operation index.
    incoming, outgoing:
        Per operation, ``(peer, bits)`` in the workflow's adjacency
        order (``Workflow.predecessors``/``successors``).
    neighbours:
        ``incoming[op] + outgoing[op]``: the order gains fold in.
    messages:
        ``(source, target, bits)`` in workflow insertion order.
    ideal_cycles:
        ``Ideal_Cycles(s) = Sum_Cycles * P(s) / Sum_Capacity`` per server.
    """

    def __init__(self, compiled: CompiledInstance, weighted: bool):
        self.compiled = compiled
        if weighted or not compiled.use_probabilities:
            # without probabilities the compiled weights are cycles * 1.0
            self.cycles = compiled.wcycles
            self.ideal_cycles = compiled.ideal_cycles
        else:
            self.cycles = tuple(c * 1.0 for c in compiled.cycles)
            total = ordered_sum(self.cycles)
            self.ideal_cycles = tuple(
                total * p / compiled.total_power_hz for p in compiled.power
            )
        # a message's compiled weight keeps its branch probability even
        # when the instance does not weight by probability
        weighted = weighted and compiled.use_probabilities

        def bits(size: float, weight: float) -> float:
            return size * (weight if weighted else 1.0)

        self.incoming, self.outgoing = (
            tuple(tuple((peer, bits(size, w)) for peer, size, w in row) for row in rows)
            for rows in (compiled.incoming, compiled.outgoing)
        )
        self.neighbours = tuple(map(operator.add, self.incoming, self.outgoing))
        self.messages = tuple(
            (source, target, bits(size, w))
            for source, target, size, w in compiled.messages
        )

    def by_cost(self) -> list[int]:
        """Operation indices by cycles descending, index order on ties."""
        cycles = self.cycles
        return sorted(range(len(cycles)), key=lambda op: -cycles[op])

    def deployment(
        self, servers: Sequence[int] | Mapping[int, int], order: Iterable[int]
    ) -> Deployment:
        """The named mapping of *servers*, operations inserted in *order*."""
        op_names = self.compiled.op_names
        server_names = self.compiled.server_names
        return Deployment({op_names[op]: server_names[servers[op]] for op in order})


def gain_of_operation_at_servers(
    graph: WeightedGraph, operation: int, servers: Sequence[int]
) -> dict[int, float]:
    """Communication saved by deploying *operation* on each server.

    The gain at a server is the number of (probability-weighted) message
    bits that stay off the network because a workflow neighbour of the
    operation is already mapped there in the vector *servers* -- the
    paper's ``Gain_Of_Operation_At_Server`` (Fig. 5), generalised from
    the line's two neighbours to every predecessor and successor in the
    graph. Maps every server hosting a neighbour to its gain (any other
    server gains 0.0); each server's bits fold left to right,
    predecessors first.
    """
    gains: dict[int, float] = {}
    for peer, bits in graph.neighbours[operation]:
        server = servers[peer]
        gains[server] = gains.get(server, 0.0) + bits
    return gains


class ServerBudgets:
    """Remaining ``Ideal_Cycles`` per server index.

    The Fair-Load family repeatedly reads the server with the most
    remaining budget (or the servers tied for it) and charges an
    assignment against one. Ties keep the network's order.
    """

    def __init__(self, ideal_cycles: Iterable[float]):
        #: Remaining budget per server index (may go negative).
        self.remaining = list(ideal_cycles)

    def charge(self, server: int, cycles: float) -> None:
        """Subtract *cycles* from the server's remaining budget."""
        self.remaining[server] -= cycles

    def neediest(self) -> int:
        """The server with the most remaining budget (lowest index on ties)."""
        remaining = self.remaining
        return max(range(len(remaining)), key=remaining.__getitem__)

    def place(self, weights: Iterable[float]) -> list[int]:
        """Worst-fit: each weight in order to the neediest server, charged.

        The paper's Fair Load loop ("a variant of the worst-fit algorithm
        for the bin packing problem"); returns the server of each weight.
        """
        servers = []
        for weight in weights:
            server = self.neediest()
            self.charge(server, weight)
            servers.append(server)
        return servers

    def tied_with_neediest(self) -> list[int]:
        """Servers that tie the largest budget (:data:`TIE_RELATIVE_TOLERANCE`).

        FLTR2 widens the candidate set to servers "with a tie ... with
        respect to their distance from their ideal load". Ordered by
        remaining budget descending, network order on ties.
        """
        remaining = self.remaining
        top = max(remaining)
        bound = TIE_RELATIVE_TOLERANCE * max(abs(top), 1.0)
        tied = [s for s, value in enumerate(remaining) if abs(value - top) <= bound]
        tied.sort(key=lambda s: -remaining[s])
        return tied


def worst_fit(
    compiled: CompiledInstance, kept: Deployment, pending: Iterable[str]
) -> Deployment:
    """*kept* plus every *pending* operation placed worst-fit.

    A server's budget is its ``Ideal_Cycles`` minus the weighted cycles
    *kept* hosts there, added in *kept*'s order; a server outside the
    network feeds none, and an operation outside the workflow on one
    inside it raises :class:`~repro.exceptions.UnknownOperationError`.
    Pending operations go heaviest raw cycles first (ties keep
    *pending*'s order), charge weighted cycles, and are skipped when
    not in the workflow.
    """
    op_index, server_index = compiled.op_index, compiled.server_index
    wcycles = compiled.wcycles
    hosted = [0.0] * len(compiled.server_names)
    for operation, server in kept:
        if server in server_index:
            if operation not in op_index:
                compiled.workflow.operation(operation)  # UnknownOperationError
            hosted[server_index[server]] += wcycles[op_index[operation]]
    budgets = ServerBudgets(map(operator.sub, compiled.ideal_cycles, hosted))
    ops = sorted(
        (op_index[name] for name in pending if name in op_index),
        key=lambda op: -compiled.cycles[op],
    )
    placed = kept.copy()
    for op, server in zip(ops, budgets.place(wcycles[op] for op in ops)):
        placed.assign(compiled.op_names[op], compiled.server_names[server])
    return placed
