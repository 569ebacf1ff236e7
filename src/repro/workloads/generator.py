"""Random workflow and network generators (section 4.1).

Two workflow shapes drive the evaluation:

* **line workflows** ``O1 -> O2 -> ... -> OM`` (sections 3.2-3.3), with
  operation cycles and message sizes drawn from a parameter mixture;
* **random well-formed graphs** (section 3.4 / 4.2), generated as nested
  decision regions so the parenthesis property holds by construction.
  The paper distinguishes three structures by their decision/operational
  node balance: *bushy* 50/50, *lengthy* 16/84, *hybrid* 35/65 -- the
  :class:`GraphStructure` enum.

The graph generator plans ``k = round(fraction * M / 2)`` decision
regions (each contributes a split and a join) and recursively embeds them
into sequences and branches under a strict feasibility invariant (a chain
of ``r`` nested regions needs at least ``r + 1`` operational nodes), so
the requested total node count ``M`` is always met exactly.

Server-side, :func:`random_bus_network` samples per-server powers and a
single shared bus speed; :func:`random_line_network` samples a speed per
link, which is what makes critical bridges (Fig. 3) possible.
"""

from __future__ import annotations

import random
from enum import Enum

from repro.core.builder import WorkflowBuilder
from repro.core.rng import coerce_rng
from repro.core.workflow import NodeKind, Workflow
from repro.exceptions import ExperimentError
from repro.network.topology import ServerNetwork, bus_network, line_network
from repro.numeric import ordered_sum
from repro.workloads.parameters import ClassCParameters, DiscreteMixture

__all__ = [
    "GraphStructure",
    "line_workflow",
    "random_graph_workflow",
    "random_bus_network",
    "random_line_network",
]

#: Default mix of decision kinds for generated regions: XOR dominates
#: because it is what differentiates the graph algorithms (probabilities).
DEFAULT_KIND_WEIGHTS = (
    (NodeKind.XOR_SPLIT, 0.5),
    (NodeKind.AND_SPLIT, 0.3),
    (NodeKind.OR_SPLIT, 0.2),
)


class GraphStructure(Enum):
    """The three random-graph families of section 4.2.

    The value is the target fraction of decision nodes among all nodes.
    """

    BUSHY = 0.50
    LENGTHY = 0.16
    HYBRID = 0.35

    @property
    def decision_fraction(self) -> float:
        """Target decision-node fraction."""
        return self.value


def line_workflow(
    num_operations: int,
    seed: int | random.Random | None = None,
    parameters: ClassCParameters | None = None,
    name: str | None = None,
) -> Workflow:
    """A line workflow with sampled costs and message sizes.

    Parameters
    ----------
    num_operations:
        ``M``, the number of operations (>= 1).
    seed:
        Seed or RNG for the parameter draws.
    parameters:
        Mixtures for ``C(O)`` and ``MsgSize``; Table 6 defaults.
    """
    if num_operations < 1:
        raise ExperimentError("a line workflow needs at least one operation")
    rng = coerce_rng(seed)
    parameters = parameters or ClassCParameters.paper()
    workflow = Workflow(name or f"line-{num_operations}")
    previous = None
    for i in range(1, num_operations + 1):
        operation = workflow.add_operation(
            _operation(f"O{i}", parameters, rng)
        )
        if previous is not None:
            workflow.connect(
                previous.name,
                operation.name,
                parameters.message_mixture.sample_bits(rng),
            )
        previous = operation
    return workflow


def _operation(name, parameters, rng):
    from repro.core.workflow import Operation

    return Operation(name, parameters.operation_cycles.sample(rng))


class _GraphGenerator:
    """Recursive region-nesting generator of well-formed graphs."""

    def __init__(
        self,
        builder: WorkflowBuilder,
        rng: random.Random,
        parameters: ClassCParameters,
        kind_mixture: DiscreteMixture[NodeKind],
        max_branches: int,
    ):
        self.builder = builder
        self.rng = rng
        self.parameters = parameters
        self.kind_mixture = kind_mixture
        self.max_branches = max_branches
        self._op_counter = 0
        self._region_counter = 0

    # -- sampled attributes -------------------------------------------
    def _cycles(self) -> float:
        return self.parameters.operation_cycles.sample(self.rng)

    def _bits(self) -> float:
        return self.parameters.message_mixture.sample_bits(self.rng)

    def _next_op_name(self) -> str:
        self._op_counter += 1
        return f"O{self._op_counter}"

    def _next_region_name(self, kind: NodeKind) -> str:
        self._region_counter += 1
        return f"{kind.value}{self._region_counter}"

    # -- structure ----------------------------------------------------
    @staticmethod
    def _needed(regions: int) -> int:
        """Minimum operational nodes a sequence with *regions* needs."""
        return regions + 1 if regions > 0 else 0

    def sequence(self, ops: int, regions: int) -> None:
        """Emit a sequence consuming exactly *ops* tasks and *regions* regions.

        Maintains the feasibility invariant ``ops >= needed(regions)``:
        an operational node is only emitted when enough ops remain for
        the outstanding regions, otherwise a region is forced.
        """
        while ops > 0 or regions > 0:
            can_place_op = ops > self._needed(regions)
            place_region = regions > 0 and (
                not can_place_op
                or self.rng.random() < regions / (ops + regions)
            )
            if place_region:
                ops, regions = self._place_region(ops, regions)
            else:
                self.builder.task(
                    self._next_op_name(), self._cycles(), self._bits()
                )
                ops -= 1

    def _place_region(self, ops: int, regions: int) -> tuple[int, int]:
        """Open/populate/close one region; returns the remaining budgets."""
        regions -= 1  # this region's split/join pair
        branches = self.rng.randint(2, self.max_branches)
        # how many of the remaining regions nest inside vs. stay outside
        nested = self.rng.randint(0, regions)

        def available(nest: int) -> int:
            """Ops usable inside, reserving the outer sequence's minimum."""
            return ops - self._needed(regions - nest)

        # interior needs one op per branch plus one per nested region;
        # nesting more regions (or fewer branches) relaxes the bound
        while nested + branches > available(nested):
            if branches > 2:
                branches -= 1
            elif nested < regions:
                nested = regions
            else:
                raise ExperimentError(
                    "internal generator invariant violated: not enough "
                    "operational nodes to populate a region"
                )
        interior_ops = self.rng.randint(nested + branches, available(nested))
        self._emit_region(branches, interior_ops, nested)
        return ops - interior_ops, regions - nested

    def _emit_region(self, branches: int, ops: int, regions: int) -> None:
        kind = self.kind_mixture.sample(self.rng)
        name = self._next_region_name(kind)
        self.builder.split(kind, name, self._cycles(), self._bits())

        # distribute nested regions, then ops, honouring per-branch minima
        region_split = self._partition(regions, branches, minimum=0)
        minima = [
            self._needed(r) if r > 0 else 1 for r in region_split
        ]
        extra = ops - sum(minima)
        extra_split = self._partition(extra, branches, minimum=0)
        op_split = [m + e for m, e in zip(minima, extra_split)]

        if kind is NodeKind.XOR_SPLIT:
            weights = [self.rng.random() + 0.05 for _ in range(branches)]
            total = ordered_sum(weights)
            probabilities = [w / total for w in weights]
            # make them sum to exactly 1.0 despite floating point
            probabilities[-1] = 1.0 - ordered_sum(probabilities[:-1])
        else:
            probabilities = [1.0] * branches

        for branch_ops, branch_regions, probability in zip(
            op_split, region_split, probabilities
        ):
            self.builder.branch(probability=probability)
            self.sequence(branch_ops, branch_regions)
        self.builder.join(f"/{name}", self._cycles(), self._bits())

    def _partition(self, total: int, parts: int, minimum: int) -> list[int]:
        """Randomly split *total* into *parts* non-negative integers."""
        counts = [minimum] * parts
        for _ in range(total - minimum * parts):
            counts[self.rng.randrange(parts)] += 1
        return counts


def random_graph_workflow(
    num_operations: int,
    structure: GraphStructure = GraphStructure.HYBRID,
    seed: int | random.Random | None = None,
    parameters: ClassCParameters | None = None,
    kind_weights=DEFAULT_KIND_WEIGHTS,
    max_branches: int = 3,
    name: str | None = None,
) -> Workflow:
    """A random well-formed workflow with the requested decision balance.

    Parameters
    ----------
    num_operations:
        Total node count ``M`` (operational + decision), >= 1.
    structure:
        Target decision fraction: bushy/lengthy/hybrid (section 4.2).
    kind_weights:
        ``(NodeKind, weight)`` pairs over split kinds.
    max_branches:
        Maximum branches per region (>= 2).

    The planned region count is ``round(fraction * M / 2)``, clamped to
    what ``M`` can structurally accommodate, so small workflows may fall
    slightly short of the target fraction (never above it).
    """
    if num_operations < 1:
        raise ExperimentError("a workflow needs at least one operation")
    if max_branches < 2:
        raise ExperimentError("max_branches must be >= 2")
    rng = coerce_rng(seed)
    parameters = parameters or ClassCParameters.paper()

    target_regions = round(structure.decision_fraction * num_operations / 2)
    # feasibility: M = ops + 2k and ops >= k + 1  =>  k <= (M - 1) / 3
    max_regions = max(0, (num_operations - 1) // 3)
    regions = min(target_regions, max_regions)
    ops = num_operations - 2 * regions

    builder = WorkflowBuilder(
        name or f"{structure.name.lower()}-{num_operations}",
        default_message_bits=parameters.message_mixture.mean_bits(),
    )
    generator = _GraphGenerator(
        builder,
        rng,
        parameters,
        DiscreteMixture(list(kind_weights)),
        max_branches,
    )
    generator.sequence(ops, regions)
    return builder.build()


def random_bus_network(
    num_servers: int,
    seed: int | random.Random | None = None,
    parameters: ClassCParameters | None = None,
    name: str | None = None,
) -> ServerNetwork:
    """A bus of *num_servers* with sampled powers and one sampled speed."""
    if num_servers < 1:
        raise ExperimentError("a network needs at least one server")
    rng = coerce_rng(seed)
    parameters = parameters or ClassCParameters.paper()
    powers = [parameters.server_power_hz.sample(rng) for _ in range(num_servers)]
    speed = parameters.line_speed_bps.sample(rng)
    return bus_network(powers, speed, name=name or f"bus-{num_servers}")


def random_line_network(
    num_servers: int,
    seed: int | random.Random | None = None,
    parameters: ClassCParameters | None = None,
    name: str | None = None,
) -> ServerNetwork:
    """A line of *num_servers* with per-link sampled speeds."""
    if num_servers < 1:
        raise ExperimentError("a network needs at least one server")
    rng = coerce_rng(seed)
    parameters = parameters or ClassCParameters.paper()
    powers = [parameters.server_power_hz.sample(rng) for _ in range(num_servers)]
    speeds = [
        parameters.line_speed_bps.sample(rng)
        for _ in range(max(0, num_servers - 1))
    ]
    if num_servers == 1:
        speeds = 1.0  # scalar placeholder; a single server has no links
    return line_network(powers, speeds, name=name or f"line-{num_servers}")
