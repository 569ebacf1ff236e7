"""Execution-probability propagation (section 3.4).

Random-graph workflows contain ``XOR`` decision nodes, so a given
operation (and therefore a given message) only executes in some fraction
of workflow runs. The graph-topology algorithms weight every cost by that
fraction, amortising the deployment decision over many executions. The
paper obtains the branch weights "by monitoring initial executions of the
workflow or simple prediction mechanisms"; here they are supplied as edge
annotations (see :class:`repro.core.workflow.Message.probability`) and
propagated through the DAG:

* an entry operation executes with probability 1;
* the unconditional probability of an edge ``u -> v`` is
  ``prob(u) * branch_probability(u -> v)``;
* an ``XOR`` join fires with the *sum* of its incoming edge probabilities
  (exactly one branch runs);
* an ``AND``/``OR`` join fires whenever its region was entered, i.e. with
  the probability of its matched split -- which equals the *maximum* of
  its incoming edge probabilities in a well-formed workflow;
* any other node with a single predecessor inherits that edge's
  probability. Operational nodes with several predecessors are treated
  like ``AND`` joins (all inputs stem from the same region entry).
"""

from __future__ import annotations

from typing import Mapping, Sequence

from repro.core.workflow import NodeKind, Workflow
from repro.numeric import ordered_sum

__all__ = ["execution_probabilities", "message_probabilities"]


def execution_probabilities(
    workflow: Workflow, order: Sequence[str] | None = None
) -> dict[str, float]:
    """Per-operation execution probability, amortised over many runs.

    The workflow must be a DAG (raises through
    :meth:`Workflow.topological_order` otherwise); a caller that has
    sorted it already passes that *order*. Probabilities are clamped to
    ``[0, 1]`` to absorb floating-point drift in deeply nested regions.
    An ``XOR`` join's edge probabilities are added left to right
    (:func:`~repro.numeric.ordered_sum`), on every Python version.
    """
    if order is None:
        order = workflow.topological_order()
    probabilities: dict[str, float] = {}
    for name in order:
        operation = workflow.operation(name)
        incoming = workflow.incoming(name)
        if not incoming:
            probabilities[name] = 1.0
            continue
        edge_probs = [
            probabilities[m.source] * m.probability for m in incoming
        ]
        if operation.kind is NodeKind.XOR_JOIN:
            value = ordered_sum(edge_probs)
        else:
            value = max(edge_probs)
        probabilities[name] = min(1.0, max(0.0, value))
    return probabilities


def message_probabilities(
    workflow: Workflow,
    node_probabilities: Mapping[str, float] | None = None,
) -> dict[tuple[str, str], float]:
    """Unconditional probability that each message is actually sent.

    Parameters
    ----------
    workflow:
        The workflow whose messages are weighted.
    node_probabilities:
        Optional precomputed result of :func:`execution_probabilities`;
        recomputed when omitted.
    """
    if node_probabilities is None:
        node_probabilities = execution_probabilities(workflow)
    return {
        message.pair: node_probabilities[message.source] * message.probability
        for message in workflow.messages
    }
