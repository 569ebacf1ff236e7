"""The Line--Line algorithm and its four variants (section 3.2, appendix).

Both the workflow and the server network are lines. Phase 1 walks the
operations left to right, filling each server up to its capacity-
proportional ``Ideal_Cycles`` budget (with the appendix's 20 % overflow
tolerance) while guaranteeing every server at least one operation, so the
mapping is a partition of the line into contiguous blocks. Phase 2
(``Fix_Bad_Bridges``) scans the *bridges* -- links carrying the message
between the last operation of one block and the first of the next -- and,
when a bridge is *critical* (slow link, large crossing message, small
adjacent message), shifts one operation across the bridge so the large
message becomes server-local (Fig. 3).

The paper derives four variants: phase 2 on/off, and assignment running
left-to-right only or both directions keeping the better result. These
are the ``fix_bridges`` and ``direction`` constructor parameters.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.algorithms.base import (
    DeploymentAlgorithm,
    ProblemContext,
    register_algorithm,
)
from repro.core.mapping import Deployment
from repro.exceptions import AlgorithmError, UnsupportedTopologyError
from repro.numeric import ordered_sum

__all__ = ["LineLine"]

#: Appendix line 12: a server may exceed its ideal budget by 20 %.
OVERFLOW_TOLERANCE = 1.2

#: Percentile fractions of ``Is_Critical_Bridge``: a link is *slow* in the
#: bottom 20 % of speeds; a message is *large* in the top 20 % of sizes
#: and *small* in the bottom 20 %.
CRITICAL_FRACTION = 0.2


@dataclass
class _Blocks:
    """Contiguous operation blocks per server, in line order."""

    servers: list[str]
    blocks: list[list[str]]

    def to_deployment(self) -> Deployment:
        mapping = Deployment()
        for server, block in zip(self.servers, self.blocks):
            for operation in block:
                mapping.assign(operation, server)
        return mapping


def _percentile(sorted_values: list[float], fraction: float) -> float:
    """Value at *fraction* through an ascending-sorted list."""
    if not sorted_values:
        return 0.0
    index = int((len(sorted_values) - 1) * fraction)
    return sorted_values[index]


@register_algorithm
class LineLine(DeploymentAlgorithm):
    """Two-phase block partitioning for Line--Line configurations.

    Parameters
    ----------
    fix_bridges:
        Run the phase-2 critical-bridge repair (variant toggle).
    direction:
        ``"ltr"`` assigns left-to-right, ``"rtl"`` right-to-left (both
        lines reversed), ``"best"`` runs both and keeps the mapping with
        the lower scalar objective.
    """

    name = "Line-Line"

    def __init__(self, fix_bridges: bool = True, direction: str = "best"):
        if direction not in ("ltr", "rtl", "best"):
            raise AlgorithmError(
                f"direction must be 'ltr', 'rtl' or 'best', got {direction!r}"
            )
        self.fix_bridges = fix_bridges
        self.direction = direction

    # ------------------------------------------------------------------
    # phase 1: contiguous fill
    # ------------------------------------------------------------------
    def _phase1(
        self,
        context: ProblemContext,
        operations: list[str],
        servers: list[str],
    ) -> _Blocks:
        workflow = context.workflow
        network = context.network
        total = ordered_sum(workflow.operation(o).cycles for o in operations)
        capacity = network.total_power_hz

        def ideal(server: str) -> float:
            return total * network.server(server).power_hz / capacity

        blocks: list[list[str]] = [[] for _ in servers]
        server_index = 0
        current = 0.0
        for position, operation in enumerate(operations):
            remaining_ops = len(operations) - position
            remaining_servers = len(servers) - server_index
            advance = False
            if current > 0 and server_index < len(servers) - 1:
                if remaining_ops <= remaining_servers - 1:
                    # keeping this operation here would starve a later server
                    advance = True
                elif (
                    current + workflow.operation(operation).cycles
                    >= OVERFLOW_TOLERANCE * ideal(servers[server_index])
                ):
                    advance = True
            if advance:
                server_index += 1
                current = 0.0
            blocks[server_index].append(operation)
            current += workflow.operation(operation).cycles
        return _Blocks(servers=list(servers), blocks=blocks)

    # ------------------------------------------------------------------
    # phase 2: critical bridges (Fig. 3 / Fix_Bad_Bridges)
    # ------------------------------------------------------------------
    def _fix_bad_bridges(self, context: ProblemContext, blocks: _Blocks) -> None:
        workflow = context.workflow
        network = context.network
        speeds = sorted(
            network.link(a, b).speed_bps
            for a, b in zip(blocks.servers, blocks.servers[1:])
        )
        sizes = sorted(message.size_bits for message in workflow.messages)
        if not speeds or not sizes:
            return
        slow_speed = _percentile(speeds, CRITICAL_FRACTION)
        large_size = _percentile(sizes, 1.0 - CRITICAL_FRACTION)
        small_size = _percentile(sizes, CRITICAL_FRACTION)

        for i in range(len(blocks.servers) - 1):
            left_block = blocks.blocks[i]
            right_block = blocks.blocks[i + 1]
            if not left_block or not right_block:
                continue
            link = network.link(blocks.servers[i], blocks.servers[i + 1])
            crossing = workflow.message(left_block[-1], right_block[0])
            if link.speed_bps > slow_speed or crossing.size_bits < large_size:
                continue  # bridge is not critical
            # shift right: the sender of the large message follows it, as
            # long as its left neighbour's message is small and the left
            # block keeps at least one operation
            if len(left_block) >= 2:
                adjacent = workflow.message(left_block[-2], left_block[-1])
                if adjacent.size_bits <= small_size:
                    right_block.insert(0, left_block.pop())
                    continue
            # shift left: symmetric move of the receiver
            if len(right_block) >= 2:
                adjacent = workflow.message(right_block[0], right_block[1])
                if adjacent.size_bits <= small_size:
                    left_block.append(right_block.pop(0))

    # ------------------------------------------------------------------
    # driver
    # ------------------------------------------------------------------
    def _run_direction(self, context: ProblemContext, reverse: bool) -> Deployment:
        operations = list(context.workflow.line_order())
        servers = list(context.network.line_order())
        if reverse:
            operations.reverse()
            servers.reverse()
        blocks = self._phase1(context, operations, servers)
        if reverse:
            # restore left-to-right orientation so bridge messages exist
            blocks.servers.reverse()
            blocks.blocks.reverse()
            for block in blocks.blocks:
                block.reverse()
        if self.fix_bridges:
            self._fix_bad_bridges(context, blocks)
        return blocks.to_deployment()

    def _deploy(self, context: ProblemContext) -> Deployment:
        if not context.workflow.is_line():
            raise UnsupportedTopologyError(
                f"{self.name} requires a line workflow; "
                f"{context.workflow.name!r} is not a line"
            )
        if not context.network.is_line():
            raise UnsupportedTopologyError(
                f"{self.name} requires a line server network; "
                f"{context.network.name!r} is not a line"
            )
        if self.direction in ("ltr", "rtl"):
            return self._run_direction(context, reverse=self.direction == "rtl")
        forward = self._run_direction(context, reverse=False)
        backward = self._run_direction(context, reverse=True)
        if (
            context.cost_model.objective(backward)
            < context.cost_model.objective(forward)
        ):
            return backward
        return forward
