"""Structural and cost analysis of workflows.

Tools the deployment algorithms themselves do not need but users of the
library constantly do:

* :func:`workflow_statistics` -- node/kind counts, depth, fan-out,
  message-size summary;
* :func:`region_tree` -- the nesting structure of decision regions (a
  well-formed workflow decomposes into a tree of regions);
* :func:`critical_path` -- the chain of operations and messages that
  realises ``Texecute`` under a given deployment, i.e. where an
  optimiser should look next.
"""

from __future__ import annotations

from dataclasses import dataclass, field


from repro.core.cost import CostModel
from repro.core.mapping import Deployment
from repro.core.validation import check_well_formed
from repro.core.workflow import NodeKind, Workflow
from repro.exceptions import MalformedWorkflowError
from repro.numeric import ordered_sum

__all__ = [
    "workflow_statistics",
    "RegionNode",
    "region_tree",
    "extract_region",
    "critical_path",
    "CriticalPath",
]


def workflow_statistics(workflow: Workflow) -> dict[str, object]:
    """Structural summary statistics of *workflow*.

    Keys: ``operations``, ``messages``, ``kind_counts`` (per
    :class:`NodeKind` value), ``decision_fraction``, ``depth`` (longest
    chain in hops), ``max_fan_out``, ``max_fan_in``, ``total_cycles``,
    ``total_message_bits``, ``mean_message_bits``.
    """
    order = workflow.topological_order()
    depth: dict[str, int] = {}
    for name in order:
        predecessors = workflow.predecessors(name)
        depth[name] = (
            max((depth[p] for p in predecessors), default=-1) + 1
        )
    kind_counts: dict[str, int] = {}
    for operation in workflow:
        kind_counts[operation.kind.value] = (
            kind_counts.get(operation.kind.value, 0) + 1
        )
    sizes = [message.size_bits for message in workflow.messages]
    return {
        "operations": len(workflow),
        "messages": len(workflow.messages),
        "kind_counts": kind_counts,
        "decision_fraction": workflow.decision_fraction(),
        "depth": max(depth.values()) + 1 if depth else 0,
        "max_fan_out": max(
            (len(workflow.successors(n)) for n in workflow.operation_names),
            default=0,
        ),
        "max_fan_in": max(
            (len(workflow.predecessors(n)) for n in workflow.operation_names),
            default=0,
        ),
        "total_cycles": workflow.total_cycles,
        "total_message_bits": ordered_sum(sizes),
        "mean_message_bits": ordered_sum(sizes) / len(sizes) if sizes else 0.0,
    }


@dataclass
class RegionNode:
    """One decision region (or the virtual root) in the region tree.

    Attributes
    ----------
    split, join:
        Names of the delimiting nodes (``None`` on the root).
    kind:
        The split's :class:`NodeKind` (``None`` on the root).
    children:
        Regions strictly nested inside this one.
    """

    split: str | None = None
    join: str | None = None
    kind: NodeKind | None = None
    children: list["RegionNode"] = field(default_factory=list)

    @property
    def is_root(self) -> bool:
        """True for the virtual whole-workflow region."""
        return self.split is None

    def depth(self) -> int:
        """Nesting depth below this node (0 for a leaf)."""
        if not self.children:
            return 0
        return 1 + max(child.depth() for child in self.children)

    def count(self) -> int:
        """Number of real regions in this subtree."""
        own = 0 if self.is_root else 1
        return own + sum(child.count() for child in self.children)


def region_tree(workflow: Workflow) -> RegionNode:
    """The nesting tree of decision regions of a well-formed workflow.

    Raises :class:`MalformedWorkflowError` when the workflow does not
    validate (regions are only well defined then).
    """
    report = check_well_formed(workflow)
    if not report.ok:
        raise MalformedWorkflowError(
            f"workflow {workflow.name!r} is malformed:\n  "
            + "\n  ".join(report.problems)
        )
    order = workflow.topological_order()
    position = {name: i for i, name in enumerate(order)}
    # sort regions by split position; a region nests inside the closest
    # enclosing (split, join) interval
    regions = sorted(
        (
            (position[split], position[join], split, join)
            for split, join in report.matches.items()
        ),
    )
    root = RegionNode()
    stack: list[tuple[int, RegionNode]] = [(len(order), root)]
    for split_pos, join_pos, split, join in regions:
        node = RegionNode(
            split=split,
            join=join,
            kind=workflow.operation(split).kind,
        )
        while stack[-1][0] < join_pos:
            stack.pop()
        stack[-1][1].children.append(node)
        stack.append((join_pos, node))
    return root


def extract_region(workflow: Workflow, split_name: str) -> Workflow:
    """The decision region headed by *split_name* as its own workflow.

    Contains the split, its matched join, and everything on paths
    between them -- a well-formed single-entry/single-exit workflow of
    its own (useful for analysing or re-costing one region in
    isolation). Raises when *split_name* is not a matched split of a
    well-formed workflow.
    """
    report = check_well_formed(workflow)
    if not report.ok:
        raise MalformedWorkflowError(
            f"workflow {workflow.name!r} is malformed:\n  "
            + "\n  ".join(report.problems)
        )
    if split_name not in report.matches:
        raise MalformedWorkflowError(
            f"{split_name!r} is not a split node of {workflow.name!r}"
        )
    join_name = report.matches[split_name]

    # members = nodes reachable from the split that reach the join
    position = {
        name: i for i, name in enumerate(workflow.topological_order())
    }
    members: set[str] = set()

    def reaches_join(name: str, memo: dict[str, bool]) -> bool:
        if name == join_name:
            return True
        if name in memo:
            return memo[name]
        memo[name] = any(
            position[s] <= position[join_name]
            and reaches_join(s, memo)
            for s in workflow.successors(name)
        )
        return memo[name]

    memo: dict[str, bool] = {}
    frontier = [split_name]
    while frontier:
        name = frontier.pop()
        if name in members or name == join_name:
            continue
        if not reaches_join(name, memo):
            continue
        members.add(name)
        frontier.extend(workflow.successors(name))
    members.add(join_name)

    region = Workflow(f"{workflow.name}:{split_name}")
    for name in workflow.topological_order():
        if name in members:
            region.add_operation(workflow.operation(name))
    for message in workflow.messages:
        if message.source in members and message.target in members:
            region.add_transition(message)
    return region


@dataclass(frozen=True)
class CriticalPath:
    """The dominating chain of ``Texecute`` under one deployment.

    Attributes
    ----------
    operations:
        Operation names from an entry to the critical exit.
    length_s:
        ``Texecute`` itself (the finish time of the critical exit). For
        workflows without XOR joins this equals the chain's own
        processing + communication time; XOR joins take expectations, so
        there the chain is the *dominant contributor* and its raw sums
        may differ from ``length_s``.
    processing_s, communication_s:
        The chain's own compute and transfer time.
    """

    operations: tuple[str, ...]
    length_s: float
    processing_s: float
    communication_s: float


def critical_path(
    workflow: Workflow,
    deployment: Deployment,
    cost_model: CostModel,
) -> CriticalPath:
    """Trace the chain that determines the (expected) execution time.

    Follows the cost model's forward pass and backtracks through the
    argmax predecessor at every node. At an ``XOR`` join -- where the
    model takes an expectation rather than a max -- the branch with the
    largest *probability-weighted arrival contribution* is followed: the
    chain an optimiser should attack first to reduce the expectation.
    ``OR`` joins follow their earliest (winning) arrival.
    """
    finish = cost_model.response_times(deployment)
    best_pred: dict[str, str | None] = {}
    for name in workflow.topological_order():
        operation = workflow.operation(name)
        incoming = workflow.incoming(name)
        if not incoming:
            best_pred[name] = None
            continue

        def arrival(message) -> float:
            return finish[message.source] + cost_model.tcomm(
                message, deployment
            )

        if operation.kind is NodeKind.XOR_JOIN:
            chosen = max(
                incoming,
                key=lambda m: cost_model.message_probability(m) * arrival(m),
            )
        elif operation.kind is NodeKind.OR_JOIN:
            chosen = min(incoming, key=arrival)
        else:
            chosen = max(incoming, key=arrival)
        best_pred[name] = chosen.source

    exit_name = max(workflow.exits, key=finish.__getitem__)
    chain = [exit_name]
    while best_pred[chain[-1]] is not None:
        chain.append(best_pred[chain[-1]])  # type: ignore[arg-type]
    chain.reverse()

    processing = ordered_sum(
        cost_model.tproc(name, deployment) for name in chain
    )
    communication = ordered_sum(
        cost_model.tcomm(workflow.message(a, b), deployment)
        for a, b in zip(chain, chain[1:])
    )
    return CriticalPath(
        operations=tuple(chain),
        length_s=finish[exit_name],
        processing_s=processing,
        communication_s=communication,
    )
