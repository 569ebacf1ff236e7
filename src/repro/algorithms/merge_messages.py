"""Algorithm *Fair Load -- Merge Messages' Ends* (section 3.3, appendix).

Extends FLTR2 with one extra test at deployment time: if assigning the
chosen operation would leave a *large* message crossing the network, the
planned assignment is cancelled and the operation is instead co-located
with the other end of that message, "alleviating the need to send the
message".

A message is *large* when its size reaches the top decile of the
workflow's message sizes -- the appendix passes
``MsgSize(m_{(M-1)*0.1})`` of the descending-sorted message list as the
``big_message_size`` threshold; the fraction is configurable. When both
an incoming and an outgoing message of the operation are large, the one
further above the threshold wins (the appendix's ``There_Is_Constraints``
tie rule).

As with the other tie-resolvers, unassigned neighbours still sit at
their random initial servers, so "the server of the sender" is always
defined -- faithful to the pseudo-code.
"""

from __future__ import annotations

import operator

from repro.algorithms.base import (
    DeploymentAlgorithm,
    ProblemContext,
    register_algorithm,
)
from repro.algorithms.graph_adapters import UNPLACED, WeightedGraph
from repro.algorithms.tie_resolver import FairLoadTieResolver2, place_by_gain
from repro.core.mapping import Deployment
from repro.exceptions import AlgorithmError

__all__ = ["FairLoadMergeMessages", "big_message_threshold"]

_BITS = operator.itemgetter(1)


def big_message_threshold(graph: WeightedGraph, big_fraction: float) -> float:
    """The size (weighted bits) above which a message counts as large.

    Sorts the workflow's (probability-weighted) message sizes descending
    and returns the size at rank ``floor((count - 1) * big_fraction)`` --
    i.e. roughly the top ``big_fraction`` of messages are large. Returns
    ``inf`` for workflows without messages so nothing triggers.
    """
    sizes = sorted((bits for _, _, bits in graph.messages), reverse=True)
    if not sizes:
        return float("inf")
    index = int((len(sizes) - 1) * big_fraction)
    return sizes[index]


@register_algorithm
class FairLoadMergeMessages(DeploymentAlgorithm):
    """FL-MergeMsgEnds: FLTR2 plus large-message co-location.

    Parameters
    ----------
    big_fraction:
        Fraction of the largest messages considered "large" (paper: 0.1).
    random_start:
        Initialise the mapping randomly (the paper's requirement, so a
        constraining neighbour always has a server). ``False`` starts
        empty; a constraint whose neighbour is still unplaced then falls
        back to the gain-selected server -- the DESIGN.md ablation.
    """

    name = "FL-MergeMsgEnds"

    def __init__(self, big_fraction: float = 0.1, random_start: bool = True):
        if not 0.0 <= big_fraction <= 1.0:
            raise AlgorithmError("big_fraction must lie in [0, 1]")
        self.big_fraction = big_fraction
        self.random_start = random_start

    @staticmethod
    def _constraining_neighbor(
        graph: WeightedGraph, operation: int, threshold: float
    ) -> int | None:
        """The neighbour whose shared large message forces co-location.

        Generalises ``There_Is_Constraints``: the largest incoming
        message (the first of equals) plays the pseudo-code's
        ``left_message`` role, the largest outgoing one the
        ``right_message`` role; whichever exceeds the threshold by more
        decides. ``None`` when neither is large.
        """
        best_in = max(graph.incoming[operation], key=_BITS, default=None)
        best_out = max(graph.outgoing[operation], key=_BITS, default=None)
        in_large = best_in is not None and best_in[1] >= threshold
        out_large = best_out is not None and best_out[1] >= threshold
        if in_large and out_large:
            # the message "furthest from the threshold value" wins; the
            # appendix breaks the exact tie toward the left (incoming) end
            return best_in[0] if best_in[1] >= best_out[1] else best_out[0]
        if in_large:
            return best_in[0]
        if out_large:
            return best_out[0]
        return None

    def _deploy(self, context: ProblemContext) -> Deployment:
        graph = WeightedGraph(context.compiled, self.uses_probability_weights)
        threshold = big_message_threshold(graph, self.big_fraction)

        def choose(graph, budgets, pending, servers) -> tuple[int, int]:
            operation, server = FairLoadTieResolver2._choose(
                graph, budgets, pending, servers
            )
            neighbor = self._constraining_neighbor(graph, operation, threshold)
            if neighbor is not None and servers[neighbor] != UNPLACED:
                server = servers[neighbor]
            return operation, server

        return place_by_gain(context, graph, self.random_start, choose)
