"""Algorithm *Heavy Operations -- Large Messages* (section 3.3, appendix).

HOLM is the paper's overall winner. Unlike the Fair-Load family it treats
operations as *groups*: two operations that exchange a large message are
clustered so they always land on the same server. Each step the algorithm
chooses between

(a) assigning the costliest remaining group to the server with the most
    available cycles (the Fair-Load move), or
(b) neutralising the largest remaining message: if one of its ends is
    already placed, the other end joins it on the same server; if both
    ends are free, their groups merge.

A message is *large* exactly when the time to send it over the bus
exceeds the execution time of the costliest group on the currently
most-available server -- i.e. the threshold adapts as the deployment
proceeds. Messages disappear from consideration once both ends are
assigned; a message whose ends already share a group is skipped (its
co-location is already guaranteed), which also makes the loop terminate
where a literal reading of the pseudo-code would merge a group with
itself forever.

On random graphs both cycles and message sizes are probability-weighted
(section 3.4). On non-bus networks the transfer-time estimate uses the
slowest link speed and the largest propagation delay as a conservative
bus equivalent.
"""

from __future__ import annotations

from typing import Sequence

from repro.algorithms.base import (
    DeploymentAlgorithm,
    ProblemContext,
    register_algorithm,
)
from repro.algorithms.graph_adapters import UNPLACED, ServerBudgets, WeightedGraph
from repro.core.mapping import Deployment

__all__ = ["HeavyOpsLargeMsgs"]


class _Groups:
    """Union of operation groups (by index) with weighted-cycle bookkeeping.

    A group's id is the index of the operation it started from.
    """

    def __init__(self, cycles: Sequence[float]):
        self._op_cycles = cycles
        self._members: dict[int, set[int]] = {i: {i} for i in range(len(cycles))}
        self._cycles: dict[int, float] = dict(enumerate(cycles))
        self._group_of: dict[int, int] = {i: i for i in range(len(cycles))}

    def same_group(self, a: int, b: int) -> bool:
        """True when both operations sit in one group."""
        return self._group_of.get(a) == self._group_of.get(b) and a in self._group_of

    def merge(self, a: int, b: int) -> int:
        """Merge the groups of *a* and *b*; returns the surviving id."""
        ga, gb = self._group_of[a], self._group_of[b]
        if ga == gb:
            return ga
        # keep the larger group's id to bound the relabelling work
        if len(self._members[ga]) < len(self._members[gb]):
            ga, gb = gb, ga
        self._members[ga] |= self._members[gb]
        self._cycles[ga] += self._cycles[gb]
        for operation in self._members[gb]:
            self._group_of[operation] = ga
        del self._members[gb]
        del self._cycles[gb]
        return ga

    def remove_operation(self, operation: int) -> None:
        """Detach *operation* (it has been assigned individually)."""
        group_id = self._group_of.pop(operation)
        members = self._members[group_id]
        members.discard(operation)
        self._cycles[group_id] -= self._op_cycles[operation]
        if not members:
            del self._members[group_id]
            del self._cycles[group_id]

    def remove_group(self, group_id: int) -> set[int]:
        """Drop a whole group (it has been assigned); returns its members."""
        members = self._members.pop(group_id)
        del self._cycles[group_id]
        for operation in members:
            del self._group_of[operation]
        return members

    def heaviest(self) -> int | None:
        """Id of the group with the most (weighted) cycles, or ``None``.

        Ties break toward the group containing the lowest operation
        index, keeping runs deterministic.
        """
        cycles, members = self._cycles, self._members
        if not cycles:
            return None
        return min(cycles, key=lambda gid: (-cycles[gid], min(members[gid])))

    def cycles(self, group_id: int) -> float:
        """Weighted cycles of one group."""
        return self._cycles[group_id]


@register_algorithm
class HeavyOpsLargeMsgs(DeploymentAlgorithm):
    """HOLM: group-based deployment neutralising large messages."""

    name = "HeavyOps-LargeMsgs"

    @staticmethod
    def _bus(network) -> tuple[float, float] | None:
        """``(speed, propagation)`` of the (conservative) bus.

        ``None`` for a single server, where every message is local.
        """
        if not network.links:
            return None
        if network.is_uniform_bus():
            return network.uniform_speed_bps, network.links[0].propagation_s
        return (
            min(link.speed_bps for link in network.links),
            max(link.propagation_s for link in network.links),
        )

    def _deploy(self, context: ProblemContext) -> Deployment:
        graph = WeightedGraph(context.compiled, self.uses_probability_weights)
        op_names = context.compiled.op_names
        power = context.compiled.power
        cycles = graph.cycles
        budgets = ServerBudgets(graph.ideal_cycles)
        groups = _Groups(cycles)
        servers = [UNPLACED] * len(cycles)
        placed: list[int] = []
        bus = self._bus(context.network)

        # messages sorted by weighted size descending, insertion order on ties
        messages = sorted(graph.messages, key=lambda m: -m[2])

        def active_top_message():
            """First message still worth acting on.

            Skipped: both ends assigned (the appendix's cleanup loop),
            and both ends unassigned in one group -- their co-location
            is already guaranteed, acting would self-merge.
            """
            for message in messages:
                source, target = message[0], message[1]
                src_assigned = servers[source] != UNPLACED
                dst_assigned = servers[target] != UNPLACED
                if src_assigned and dst_assigned:
                    continue
                if not (src_assigned or dst_assigned) and groups.same_group(
                    source, target
                ):
                    continue
                return message
            return None

        def place(operation: int, server: int) -> None:
            servers[operation] = server
            budgets.charge(server, cycles[operation])
            placed.append(operation)

        while len(placed) < len(cycles):
            heaviest = groups.heaviest()
            assert heaviest is not None  # every unassigned op is in a group
            server = budgets.neediest()
            top = active_top_message()

            message_is_large = False
            if top is not None:
                group_time = groups.cycles(heaviest) / power[server]
                # time to push the message over the bus
                transfer_time = 0.0
                if bus is not None:
                    speed, propagation = bus
                    transfer_time = top[2] / speed + propagation
                message_is_large = transfer_time >= group_time

            if top is None or not message_is_large:
                # option (a): heaviest group to the most available server,
                # its members in name order
                members = groups.remove_group(heaviest)
                for operation in sorted(members, key=op_names.__getitem__):
                    place(operation, server)
                continue

            source, target = top[0], top[1]
            if servers[source] != UNPLACED and servers[target] == UNPLACED:
                # option (b1): pull the free end onto the sender's server
                place(target, servers[source])
                groups.remove_operation(target)
            elif servers[target] != UNPLACED and servers[source] == UNPLACED:
                place(source, servers[target])
                groups.remove_operation(source)
            else:
                # option (b2): both free -> merge their groups
                groups.merge(source, target)
        return graph.deployment(servers, placed)
