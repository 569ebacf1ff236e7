"""Fluent construction of well-formed workflows.

:class:`WorkflowBuilder` offers a small imperative language for describing
workflows that are *well-formed by construction*: decision regions are
opened with :meth:`~WorkflowBuilder.split`, populated branch by branch with
:meth:`~WorkflowBuilder.branch`, and closed with
:meth:`~WorkflowBuilder.join`. Because regions can only nest, the
parenthesis rule of section 2.2 always holds for built workflows (and
:meth:`~WorkflowBuilder.build` re-validates as a safety net).

Example -- a diamond with an XOR choice::

    builder = WorkflowBuilder("triage", default_message_bits=8_000)
    builder.task("receive", cycles=5e6)
    builder.split(NodeKind.XOR_SPLIT, "check", cycles=1e6)
    builder.branch(probability=0.7)
    builder.task("assign", cycles=50e6)
    builder.branch(probability=0.3)
    builder.task("reject", cycles=5e6)
    builder.join("check_done", cycles=1e6)
    builder.task("archive", cycles=5e6)
    workflow = builder.build()
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.core.validation import assert_well_formed
from repro.core.workflow import Message, NodeKind, Operation, Workflow
from repro.exceptions import WorkflowError
from repro.numeric import ordered_sum

__all__ = ["WorkflowBuilder"]

#: Default decision-node cost: evaluating a routing condition is cheap
#: relative to operational work (the paper's operational nodes start at
#: 5M cycles).
DEFAULT_DECISION_CYCLES = 1e6


@dataclass
class _OpenBlock:
    """Book-keeping for a decision region that has not been joined yet."""

    split_name: str
    kind: NodeKind
    finished_branch_tails: list[list[str]] = field(default_factory=list)
    branch_open: bool = False
    probabilities: list[float] = field(default_factory=list)


class WorkflowBuilder:
    """Build a well-formed :class:`~repro.core.workflow.Workflow` step by step.

    Parameters
    ----------
    name:
        Name given to the built workflow.
    default_message_bits:
        Message size used for every transition whose size is not passed
        explicitly (``message_bits=`` argument on the node methods).
    """

    def __init__(self, name: str = "workflow", default_message_bits: float = 8_000.0):
        if default_message_bits < 0:
            raise WorkflowError("default_message_bits must be >= 0")
        self._workflow = Workflow(name)
        self._default_bits = float(default_message_bits)
        self._tails: list[str] = []
        self._blocks: list[_OpenBlock] = []
        # probability for the next edge leaving an XOR split into a branch
        self._pending_probability: float | None = None
        self._built = False

    # ------------------------------------------------------------------
    # node insertion
    # ------------------------------------------------------------------
    def task(
        self,
        name: str,
        cycles: float,
        message_bits: float | None = None,
    ) -> "WorkflowBuilder":
        """Append an operational node after the current tail(s)."""
        self._append(Operation(name, cycles), message_bits)
        return self

    def split(
        self,
        kind: NodeKind,
        name: str,
        cycles: float = DEFAULT_DECISION_CYCLES,
        message_bits: float | None = None,
    ) -> "WorkflowBuilder":
        """Open a decision region headed by a split node of *kind*."""
        if not kind.is_split:
            raise WorkflowError(
                f"split() requires a split kind, got {kind.value!r}"
            )
        self._append(Operation(name, cycles, kind), message_bits)
        self._blocks.append(_OpenBlock(split_name=name, kind=kind))
        self._tails = []  # nothing may attach to the split until branch()
        return self

    def branch(self, probability: float = 1.0) -> "WorkflowBuilder":
        """Start the next branch of the innermost open region.

        For XOR regions, *probability* is the chance this branch is taken;
        the probabilities of all branches of one XOR split must sum to 1.
        For AND/OR regions the argument must stay at its default 1.
        """
        block = self._innermost_block("branch()")
        if block.kind is not NodeKind.XOR_SPLIT and probability != 1.0:
            raise WorkflowError(
                f"branch probability only applies to XOR regions; region "
                f"{block.split_name!r} is {block.kind.value}"
            )
        self._close_current_branch(block)
        block.branch_open = True
        block.probabilities.append(probability)
        self._tails = [block.split_name]
        self._pending_probability = (
            probability if block.kind is NodeKind.XOR_SPLIT else None
        )
        return self

    def join(
        self,
        name: str,
        cycles: float = DEFAULT_DECISION_CYCLES,
        message_bits: float | None = None,
    ) -> "WorkflowBuilder":
        """Close the innermost decision region with its complement node."""
        block = self._innermost_block("join()")
        self._close_current_branch(block)
        if not block.finished_branch_tails:
            raise WorkflowError(
                f"region {block.split_name!r} has no branches; call branch() "
                f"before join()"
            )
        if block.kind is NodeKind.XOR_SPLIT:
            total = ordered_sum(block.probabilities)
            if abs(total - 1.0) > 1e-9:
                raise WorkflowError(
                    f"XOR region {block.split_name!r}: branch probabilities "
                    f"sum to {total}, expected 1"
                )
        # connect every branch tail to the join node
        self._tails = [t for tails in block.finished_branch_tails for t in tails]
        self._append(Operation(name, cycles, block.kind.complement), message_bits)
        self._blocks.pop()
        return self

    # ------------------------------------------------------------------
    # finalisation
    # ------------------------------------------------------------------
    def build(self, validate: bool = True) -> Workflow:
        """Finish and return the workflow.

        Raises when decision regions are still open, when a branch is
        dangling, or (with ``validate=True``) when the result unexpectedly
        fails the independent well-formedness checker.
        """
        if self._blocks:
            open_names = ", ".join(repr(b.split_name) for b in self._blocks)
            raise WorkflowError(f"unclosed decision region(s): {open_names}")
        if self._built:
            raise WorkflowError("build() may only be called once per builder")
        if len(self._workflow) == 0:
            raise WorkflowError("cannot build an empty workflow")
        if validate:
            assert_well_formed(self._workflow)
        self._built = True
        return self._workflow

    # ------------------------------------------------------------------
    # internals
    # ------------------------------------------------------------------
    def _innermost_block(self, caller: str) -> _OpenBlock:
        if not self._blocks:
            raise WorkflowError(f"{caller} called with no open decision region")
        return self._blocks[-1]

    def _close_current_branch(self, block: _OpenBlock) -> None:
        if block.branch_open:
            if not self._tails:
                raise WorkflowError(
                    f"empty branch in region {block.split_name!r}: add at "
                    f"least one node per branch"
                )
            # A tail equal to the split itself means the branch contained
            # only the split -> forbidden (empty branch).
            if self._tails == [block.split_name]:
                raise WorkflowError(
                    f"empty branch in region {block.split_name!r}: add at "
                    f"least one node per branch"
                )
            block.finished_branch_tails.append(list(self._tails))
            block.branch_open = False

    def _append(self, operation: Operation, message_bits: float | None) -> None:
        if self._built:
            raise WorkflowError("builder already finished; create a new one")
        if self._blocks and not self._blocks[-1].branch_open and self._tails == []:
            raise WorkflowError(
                f"region {self._blocks[-1].split_name!r} is open but no "
                f"branch has been started; call branch() first"
            )
        bits = self._default_bits if message_bits is None else float(message_bits)
        self._workflow.add_operation(operation)
        for tail in self._tails:
            probability = 1.0
            if self._pending_probability is not None:
                probability = self._pending_probability
            self._workflow.add_transition(
                Message(tail, operation.name, bits, probability)
            )
        self._pending_probability = None
        self._tails = [operation.name]
