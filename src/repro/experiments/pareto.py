"""Pareto analysis of the two-metric solution space (section 4.2).

The paper's figures plot solutions in the (execution time, time penalty)
plane and note: "The closer a solution is to point (0,0), the better it
is. Assuming different weights for the two measures, different distance
measures could also be considered." This module provides exactly that
toolkit over experiment records:

* :func:`pareto_front` -- the non-dominated subset;
* :func:`distance_to_origin` -- weighted Lp distance of one cost point;
* :func:`rank_by_distance` -- order algorithms by mean weighted distance,
  so the sensitivity of "who wins" to the weighting can be studied
  (:func:`weight_sensitivity_table`).
"""

from __future__ import annotations

from typing import Sequence

from repro.core.cost import CostBreakdown
from repro.exceptions import ExperimentError
from repro.experiments.runner import ExperimentResult, RunRecord
from repro.numeric import ordered_sum
from repro.tables import TextTable

__all__ = [
    "pareto_front",
    "distance_to_origin",
    "rank_by_distance",
    "weight_sensitivity_table",
]


def pareto_front(records: Sequence[RunRecord]) -> list[RunRecord]:
    """Non-dominated records in the (Texecute, TimePenalty) plane.

    Sorted by execution time ascending. Duplicated cost points are kept
    once (the first occurrence wins).
    """
    front: list[RunRecord] = []
    for candidate in records:
        if any(kept.cost.dominates(candidate.cost) for kept in front):
            continue
        duplicate = any(
            kept.cost.execution_time == candidate.cost.execution_time
            and kept.cost.time_penalty == candidate.cost.time_penalty
            for kept in front
        )
        if duplicate:
            continue
        front = [
            kept for kept in front if not candidate.cost.dominates(kept.cost)
        ]
        front.append(candidate)
    front.sort(
        key=lambda record: (
            record.cost.execution_time,
            record.cost.time_penalty,
        )
    )
    return front


def distance_to_origin(
    cost: CostBreakdown,
    execution_weight: float = 1.0,
    penalty_weight: float = 1.0,
    order: float = 2.0,
) -> float:
    """Weighted Lp distance of *cost* from the ideal point (0, 0).

    ``order=2`` is the Euclidean reading of the figures; ``order=1``
    recovers (up to the weights) the paper's weighted-sum objective;
    large orders approach the weighted max.
    """
    if execution_weight < 0 or penalty_weight < 0:
        raise ExperimentError("weights must be >= 0")
    if order < 1:
        raise ExperimentError("order must be >= 1")
    x = execution_weight * cost.execution_time
    y = penalty_weight * cost.time_penalty
    if order == float("inf"):
        return max(x, y)
    return (x**order + y**order) ** (1.0 / order)


def rank_by_distance(
    result: ExperimentResult,
    execution_weight: float = 1.0,
    penalty_weight: float = 1.0,
    order: float = 2.0,
) -> list[tuple[str, float]]:
    """Algorithms ordered by mean weighted distance to (0, 0), best first."""
    rankings = []
    for name in result.algorithms():
        records = result.records_for(name)
        mean = ordered_sum(
            distance_to_origin(
                record.cost, execution_weight, penalty_weight, order
            )
            for record in records
        ) / len(records)
        rankings.append((name, mean))
    rankings.sort(key=lambda pair: pair[1])
    return rankings


def weight_sensitivity_table(
    result: ExperimentResult,
    weight_pairs: Sequence[tuple[float, float]] = (
        (1.0, 0.0),
        (1.0, 1.0),
        (1.0, 10.0),
        (0.0, 1.0),
    ),
    order: float = 2.0,
) -> TextTable:
    """Who wins under each (execution, penalty) weighting.

    One row per weight pair: the winner and the full ranking -- showing
    how the paper's conclusion shifts as fairness gains importance.
    """
    table = TextTable(
        ["exec_weight", "penalty_weight", "winner", "ranking"],
        title=f"weight sensitivity ({result.config.describe()})",
    )
    for execution_weight, penalty_weight in weight_pairs:
        rankings = rank_by_distance(
            result, execution_weight, penalty_weight, order
        )
        table.add_row(
            [
                f"{execution_weight:g}",
                f"{penalty_weight:g}",
                rankings[0][0],
                " > ".join(name for name, _ in rankings),
            ]
        )
    return table
