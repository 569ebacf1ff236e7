"""The workflow model ``W(O, E)`` of section 2.2.

A *workflow* is a directed graph whose nodes are web-service *operations*
and whose edges are XML *messages* (called *transitions* in the paper).
Operations are either *operational* (they perform a task and cost
``C(op)`` CPU cycles) or *decision* nodes that steer control flow:

``AND``
    all outgoing paths execute, with a rendezvous at the complement
    ``/AND`` node;
``OR``
    all outgoing paths start, but the region completes as soon as one
    path reaches ``/OR``;
``XOR``
    exactly one outgoing path executes, picked with the probability
    annotated on the outgoing edge.

Every decision node must be closed by its complement, and all paths
stemming from a decision node must pass through the complement -- the
*well-formedness* requirement enforced by :mod:`repro.core.validation`.

Units used throughout the library are SI base units:

* operation cost ``C(op)`` -- CPU **cycles**;
* message size -- **bits**;
* server power ``P(s)`` -- **Hz** (cycles/second);
* link speed -- **bits/second**;
* every derived time -- **seconds**.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from enum import Enum
from typing import Iterable, Iterator, Mapping

import networkx as nx

from repro.exceptions import (
    DuplicateOperationError,
    DuplicateTransitionError,
    UnknownOperationError,
    WorkflowError,
)
from repro.numeric import ordered_sum

__all__ = ["NodeKind", "Operation", "Message", "Workflow"]


class NodeKind(Enum):
    """The role an operation plays in the workflow control flow."""

    OPERATIONAL = "operational"
    AND_SPLIT = "and"
    AND_JOIN = "/and"
    OR_SPLIT = "or"
    OR_JOIN = "/or"
    XOR_SPLIT = "xor"
    XOR_JOIN = "/xor"

    @property
    def is_decision(self) -> bool:
        """True for the six decision kinds (splits and joins)."""
        return self is not NodeKind.OPERATIONAL

    @property
    def is_split(self) -> bool:
        """True for ``AND``, ``OR`` and ``XOR`` opening nodes."""
        return self in (NodeKind.AND_SPLIT, NodeKind.OR_SPLIT, NodeKind.XOR_SPLIT)

    @property
    def is_join(self) -> bool:
        """True for ``/AND``, ``/OR`` and ``/XOR`` closing nodes."""
        return self in (NodeKind.AND_JOIN, NodeKind.OR_JOIN, NodeKind.XOR_JOIN)

    @property
    def complement(self) -> "NodeKind":
        """The matching split for a join and vice versa.

        Raises :class:`ValueError` for :attr:`OPERATIONAL`, which has no
        complement.
        """
        pairs = {
            NodeKind.AND_SPLIT: NodeKind.AND_JOIN,
            NodeKind.AND_JOIN: NodeKind.AND_SPLIT,
            NodeKind.OR_SPLIT: NodeKind.OR_JOIN,
            NodeKind.OR_JOIN: NodeKind.OR_SPLIT,
            NodeKind.XOR_SPLIT: NodeKind.XOR_JOIN,
            NodeKind.XOR_JOIN: NodeKind.XOR_SPLIT,
        }
        try:
            return pairs[self]
        except KeyError:
            raise ValueError("operational nodes have no complement") from None


@dataclass(frozen=True)
class Operation:
    """A WSDL operation: a node of the workflow graph.

    Parameters
    ----------
    name:
        Unique identifier within a workflow.
    cycles:
        ``C(op)``, the CPU cycles the operation needs to complete. Decision
        nodes also consume cycles (they are operations that evaluate
        routing conditions), though typically far fewer than operational
        nodes.
    kind:
        Control-flow role; defaults to :attr:`NodeKind.OPERATIONAL`.
    """

    name: str
    cycles: float
    kind: NodeKind = NodeKind.OPERATIONAL

    def __post_init__(self) -> None:
        if not self.name:
            raise WorkflowError("operation name must be non-empty")
        if not math.isfinite(self.cycles) or self.cycles < 0:
            raise WorkflowError(
                f"operation {self.name!r}: cycles must be finite and >= 0, "
                f"got {self.cycles!r}"
            )

    def with_cycles(self, cycles: float) -> "Operation":
        """Return a copy of this operation with a different cost."""
        return replace(self, cycles=cycles)

    @property
    def is_decision(self) -> bool:
        """Shorthand for ``self.kind.is_decision``."""
        return self.kind.is_decision


@dataclass(frozen=True)
class Message:
    """A transition ``(source, target)``: an XML message between operations.

    Parameters
    ----------
    source, target:
        Names of the sending and receiving operations.
    size_bits:
        ``MsgSize`` in bits.
    probability:
        Conditional probability that this edge is taken *given that the
        source executes*. Every edge that is not an ``XOR`` branch carries
        probability 1. ``XOR`` branch probabilities out of one split must
        sum to 1 (validated at workflow level).
    """

    source: str
    target: str
    size_bits: float
    probability: float = 1.0

    def __post_init__(self) -> None:
        if self.source == self.target:
            raise WorkflowError(
                f"self-transition on operation {self.source!r} is not allowed"
            )
        if not math.isfinite(self.size_bits) or self.size_bits < 0:
            raise WorkflowError(
                f"message {self.source!r}->{self.target!r}: size must be "
                f"finite and >= 0, got {self.size_bits!r}"
            )
        if not 0.0 <= self.probability <= 1.0:
            raise WorkflowError(
                f"message {self.source!r}->{self.target!r}: probability must "
                f"lie in [0, 1], got {self.probability!r}"
            )

    @property
    def pair(self) -> tuple[str, str]:
        """The ordered ``(source, target)`` operation-name pair."""
        return (self.source, self.target)


class Workflow:
    """A workflow ``W(O, E)``: a digraph of operations linked by messages.

    The class wraps a :class:`networkx.DiGraph` and guarantees the paper's
    structural assumptions at insertion time: operation names are unique,
    and each ordered pair of operations exchanges at most one message.
    Well-formedness of decision regions is checked separately (it is a
    whole-graph property) by :func:`repro.core.validation.check_well_formed`.

    Parameters
    ----------
    name:
        Optional label used in reports and reprs.
    """

    def __init__(self, name: str = "workflow") -> None:
        self.name = name
        self._graph: nx.DiGraph = nx.DiGraph()
        self._operations: dict[str, Operation] = {}
        self._messages: dict[tuple[str, str], Message] = {}

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------
    def add_operation(self, operation: Operation) -> Operation:
        """Insert *operation*; raise if the name is already used."""
        if operation.name in self._operations:
            raise DuplicateOperationError(
                f"operation {operation.name!r} already exists in {self.name!r}"
            )
        self._operations[operation.name] = operation
        self._graph.add_node(operation.name)
        return operation

    def add_operations(self, operations: Iterable[Operation]) -> None:
        """Insert several operations in order."""
        for operation in operations:
            self.add_operation(operation)

    def add_transition(self, message: Message) -> Message:
        """Insert *message*; both endpoints must already be operations."""
        for endpoint in message.pair:
            if endpoint not in self._operations:
                raise UnknownOperationError(
                    f"transition references unknown operation {endpoint!r}"
                )
        if message.pair in self._messages:
            raise DuplicateTransitionError(
                f"a message {message.source!r}->{message.target!r} already "
                f"exists; the paper allows one message per operation pair"
            )
        self._messages[message.pair] = message
        self._graph.add_edge(*message.pair)
        return message

    def connect(
        self,
        source: str,
        target: str,
        size_bits: float,
        probability: float = 1.0,
    ) -> Message:
        """Convenience wrapper building and inserting a :class:`Message`."""
        return self.add_transition(
            Message(source, target, size_bits, probability)
        )

    def replace_message(self, message: Message) -> None:
        """Swap the stored message for the same pair with *message*."""
        if message.pair not in self._messages:
            raise UnknownOperationError(
                f"cannot replace unknown transition "
                f"{message.source!r}->{message.target!r}"
            )
        self._messages[message.pair] = message

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------
    def __contains__(self, name: str) -> bool:
        return name in self._operations

    def __len__(self) -> int:
        return len(self._operations)

    def __iter__(self) -> Iterator[Operation]:
        return iter(self._operations.values())

    def operation(self, name: str) -> Operation:
        """Return the operation called *name* or raise."""
        try:
            return self._operations[name]
        except KeyError:
            raise UnknownOperationError(
                f"no operation {name!r} in workflow {self.name!r}"
            ) from None

    @property
    def operations(self) -> tuple[Operation, ...]:
        """All operations in insertion order."""
        return tuple(self._operations.values())

    @property
    def operation_names(self) -> tuple[str, ...]:
        """All operation names in insertion order."""
        return tuple(self._operations)

    @property
    def messages(self) -> tuple[Message, ...]:
        """All messages in insertion order."""
        return tuple(self._messages.values())

    def message(self, source: str, target: str) -> Message:
        """Return the message ``source -> target`` or raise."""
        try:
            return self._messages[(source, target)]
        except KeyError:
            raise UnknownOperationError(
                f"no transition {source!r}->{target!r} in {self.name!r}"
            ) from None

    def predecessors(self, name: str) -> tuple[str, ...]:
        """Names of operations sending a message to *name*."""
        self.operation(name)
        return tuple(self._graph.predecessors(name))

    def successors(self, name: str) -> tuple[str, ...]:
        """Names of operations receiving a message from *name*."""
        self.operation(name)
        return tuple(self._graph.successors(name))

    def incoming(self, name: str) -> tuple[Message, ...]:
        """Messages arriving at *name*."""
        return tuple(self._messages[(p, name)] for p in self.predecessors(name))

    def outgoing(self, name: str) -> tuple[Message, ...]:
        """Messages leaving *name*."""
        return tuple(self._messages[(name, s)] for s in self.successors(name))

    @property
    def entries(self) -> tuple[str, ...]:
        """Operations without predecessors (workflow start points)."""
        return tuple(n for n in self._graph.nodes if self._graph.in_degree(n) == 0)

    @property
    def exits(self) -> tuple[str, ...]:
        """Operations without successors (workflow end points)."""
        return tuple(n for n in self._graph.nodes if self._graph.out_degree(n) == 0)

    @property
    def total_cycles(self) -> float:
        """``Sum_Cycles``: the cycles of all operations combined."""
        return ordered_sum(op.cycles for op in self._operations.values())

    @property
    def graph(self) -> nx.DiGraph:
        """A read-only view of the underlying digraph."""
        return self._graph.copy(as_view=True)

    def is_dag(self) -> bool:
        """True when the workflow has no cycles."""
        return nx.is_directed_acyclic_graph(self._graph)

    def is_line(self) -> bool:
        """True for a *line* workflow ``O1 -> O2 -> ... -> OM``.

        A line workflow has exactly one entry, one exit, and every node has
        in- and out-degree at most 1. The empty workflow is not a line; a
        single isolated operation is (a degenerate line of length 1).
        """
        if len(self) == 0:
            return False
        if len(self) == 1:
            return True
        if not nx.is_weakly_connected(self._graph):
            return False
        degrees_ok = all(
            self._graph.in_degree(n) <= 1 and self._graph.out_degree(n) <= 1
            for n in self._graph.nodes
        )
        return degrees_ok and len(self.entries) == 1 and len(self.exits) == 1

    def line_order(self) -> tuple[str, ...]:
        """Operations of a line workflow in execution order.

        Raises :class:`WorkflowError` when the workflow is not a line.
        """
        if not self.is_line():
            raise WorkflowError(
                f"workflow {self.name!r} is not a line; use topological_order()"
            )
        if len(self) == 1:
            return self.operation_names
        order = [self.entries[0]]
        while True:
            successors = tuple(self._graph.successors(order[-1]))
            if not successors:
                break
            order.append(successors[0])
        return tuple(order)

    def topological_order(self) -> tuple[str, ...]:
        """A topological ordering of the operations (DAG required)."""
        try:
            return tuple(nx.topological_sort(self._graph))
        except nx.NetworkXUnfeasible:
            raise WorkflowError(f"workflow {self.name!r} contains a cycle") from None

    def decision_fraction(self) -> float:
        """Fraction of nodes that are decision nodes (0 for empty)."""
        if not self._operations:
            return 0.0
        decisions = sum(1 for op in self if op.is_decision)
        return decisions / len(self)

    def validate_xor_probabilities(self, tolerance: float = 1e-9) -> None:
        """Check that each XOR split's branch probabilities sum to 1.

        Raises :class:`WorkflowError` on violation. Non-XOR edges must all
        carry probability 1.
        """
        for op in self:
            out = self.outgoing(op.name)
            if op.kind is NodeKind.XOR_SPLIT:
                if not out:
                    continue
                total = ordered_sum(m.probability for m in out)
                if abs(total - 1.0) > tolerance:
                    raise WorkflowError(
                        f"XOR split {op.name!r}: branch probabilities sum to "
                        f"{total}, expected 1"
                    )
            else:
                for m in out:
                    if abs(m.probability - 1.0) > tolerance:
                        raise WorkflowError(
                            f"non-XOR edge {m.source!r}->{m.target!r} carries "
                            f"probability {m.probability}, expected 1"
                        )

    # ------------------------------------------------------------------
    # derived workflows
    # ------------------------------------------------------------------
    def copy(self, name: str | None = None) -> "Workflow":
        """A structural deep copy (operations and messages are immutable)."""
        clone = Workflow(name or self.name)
        clone.add_operations(self.operations)
        for message in self.messages:
            clone.add_transition(message)
        return clone

    def scaled(
        self,
        cycle_factor: float = 1.0,
        message_factor: float = 1.0,
        name: str | None = None,
    ) -> "Workflow":
        """A copy with operation cycles and message sizes scaled.

        Used by Class B experiments to vary the workload intensity without
        changing the workflow structure.
        """
        clone = Workflow(name or f"{self.name}-scaled")
        clone.add_operations(
            op.with_cycles(op.cycles * cycle_factor) for op in self.operations
        )
        for message in self.messages:
            clone.add_transition(
                replace(message, size_bits=message.size_bits * message_factor)
            )
        return clone

    # ------------------------------------------------------------------
    # misc
    # ------------------------------------------------------------------
    def summary(self) -> Mapping[str, object]:
        """A small dict of structural statistics, handy for reports."""
        return {
            "name": self.name,
            "operations": len(self),
            "messages": len(self._messages),
            "decision_fraction": round(self.decision_fraction(), 4),
            "is_line": self.is_line(),
            "total_cycles": self.total_cycles,
        }

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Workflow({self.name!r}, operations={len(self)}, "
            f"messages={len(self._messages)})"
        )
