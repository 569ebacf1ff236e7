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

from repro.algorithms.base import (
    DeploymentAlgorithm,
    ProblemContext,
    register_algorithm,
)
from repro.algorithms.graph_adapters import ServerBudgets
from repro.core.mapping import Deployment

__all__ = ["HeavyOpsLargeMsgs"]


class _Groups:
    """Union of operation groups with weighted-cycle bookkeeping."""

    def __init__(self, context: ProblemContext):
        self._context = context
        self._members: dict[int, set[str]] = {}
        self._cycles: dict[int, float] = {}
        self._group_of: dict[str, int] = {}
        self._rank: dict[str, int] = {}
        for i, name in enumerate(context.workflow.operation_names):
            self._members[i] = {name}
            self._cycles[i] = context.weighted_cycles(name)
            self._group_of[name] = i
            self._rank[name] = i

    def group_of(self, operation: str) -> int:
        """Group id currently containing *operation*."""
        return self._group_of[operation]

    def same_group(self, a: str, b: str) -> bool:
        """True when both operations sit in one group."""
        return self._group_of.get(a) == self._group_of.get(b) and a in self._group_of

    def members(self, group_id: int) -> set[str]:
        """Operations of one group."""
        return set(self._members[group_id])

    def merge(self, a: str, b: str) -> int:
        """Merge the groups of *a* and *b*; returns the surviving id."""
        ga, gb = self._group_of[a], self._group_of[b]
        if ga == gb:
            return ga
        # keep the larger group's id to bound the relabelling work
        if len(self._members[ga]) < len(self._members[gb]):
            ga, gb = gb, ga
        self._members[ga] |= self._members[gb]
        self._cycles[ga] += self._cycles[gb]
        for name in self._members[gb]:
            self._group_of[name] = ga
        del self._members[gb]
        del self._cycles[gb]
        return ga

    def remove_operation(self, operation: str) -> None:
        """Detach *operation* (it has been assigned individually)."""
        group_id = self._group_of.pop(operation)
        members = self._members[group_id]
        members.discard(operation)
        self._cycles[group_id] -= self._context.weighted_cycles(operation)
        if not members:
            del self._members[group_id]
            del self._cycles[group_id]

    def remove_group(self, group_id: int) -> set[str]:
        """Drop a whole group (it has been assigned); returns its members."""
        members = self._members.pop(group_id)
        del self._cycles[group_id]
        for name in members:
            del self._group_of[name]
        return members

    def heaviest(self) -> int | None:
        """Id of the group with the most (weighted) cycles, or ``None``.

        Ties break toward the group containing the earliest-inserted
        operation, keeping runs deterministic.
        """
        if not self._members:
            return None
        return min(
            self._members,
            key=lambda gid: (
                -self._cycles[gid],
                min(self._rank[name] for name in self._members[gid]),
            ),
        )

    def cycles(self, group_id: int) -> float:
        """Weighted cycles of one group."""
        return self._cycles[group_id]

    def __len__(self) -> int:
        return len(self._members)


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
        workflow = context.workflow
        budgets = ServerBudgets(context)
        groups = _Groups(context)
        mapping = Deployment()
        bus = self._bus(context.network)

        # messages sorted by weighted size descending, insertion order on ties
        messages = sorted(
            workflow.messages,
            key=lambda m: -context.weighted_message_bits(*m.pair),
        )

        def active_top_message():
            """First message still worth acting on; prunes dead entries.

            Dead: both ends assigned (the appendix's cleanup loop).
            Skipped but kept: both ends unassigned in one group -- their
            co-location is already guaranteed, acting would self-merge.
            """
            while messages and all(end in mapping for end in messages[0].pair):
                messages.pop(0)
            for message in messages:
                src_assigned = message.source in mapping
                dst_assigned = message.target in mapping
                if src_assigned and dst_assigned:
                    continue
                if (
                    not src_assigned
                    and not dst_assigned
                    and groups.same_group(message.source, message.target)
                ):
                    continue
                return message
            return None

        unassigned = len(workflow)
        while unassigned:
            heaviest = groups.heaviest()
            assert heaviest is not None  # every unassigned op is in a group
            server = budgets.neediest()
            top = active_top_message()

            message_is_large = False
            if top is not None:
                group_time = groups.cycles(heaviest) / context.network.server(
                    server
                ).power_hz
                # time to push the message over the bus
                transfer_time = 0.0
                if bus is not None:
                    speed, propagation = bus
                    bits = context.weighted_message_bits(*top.pair)
                    transfer_time = bits / speed + propagation
                message_is_large = transfer_time >= group_time

            if top is None or not message_is_large:
                # option (a): heaviest group to the most available server
                for name in sorted(groups.remove_group(heaviest)):
                    mapping.assign(name, server)
                    budgets.charge(server, context.weighted_cycles(name))
                    unassigned -= 1
                continue

            src_assigned = top.source in mapping
            dst_assigned = top.target in mapping
            if src_assigned and not dst_assigned:
                # option (b1): pull the free end onto the sender's server
                host = mapping.server_of(top.source)
                mapping.assign(top.target, host)
                budgets.charge(host, context.weighted_cycles(top.target))
                groups.remove_operation(top.target)
                unassigned -= 1
            elif dst_assigned and not src_assigned:
                host = mapping.server_of(top.target)
                mapping.assign(top.source, host)
                budgets.charge(host, context.weighted_cycles(top.source))
                groups.remove_operation(top.source)
                unassigned -= 1
            else:
                # option (b2): both free -> merge their groups
                groups.merge(top.source, top.target)
        return mapping
