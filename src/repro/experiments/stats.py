"""Statistical summaries for experiment results.

The paper reports means and worst cases; a reproduction should also say
how sure it is. This module adds:

* :func:`summarize` -- mean / standard deviation / Student-t confidence
  interval for a sample of measurements;
* :func:`win_matrix` -- per-instance pairwise win counts between
  algorithms (who beats whom, how often) over an
  :class:`~repro.experiments.runner.ExperimentResult`;
* :func:`comparison_table` -- the above as a printable table.

Uses :mod:`scipy.stats` for the t quantile, imported at that one call
so the rest of the package never needs SciPy.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

from repro.exceptions import ExperimentError
from repro.experiments.runner import ExperimentResult
from repro.numeric import ordered_sum
from repro.tables import TextTable, format_seconds

__all__ = ["SummaryStats", "summarize", "win_matrix", "comparison_table"]


@dataclass(frozen=True)
class SummaryStats:
    """Mean, spread and confidence interval of one sample."""

    count: int
    mean: float
    std: float
    ci_low: float
    ci_high: float
    confidence: float

    @property
    def half_width(self) -> float:
        """Half the confidence interval's width."""
        return (self.ci_high - self.ci_low) / 2

    def format(self) -> str:
        """``mean ± half-width`` with time formatting."""
        return (
            f"{format_seconds(self.mean)} +/- "
            f"{format_seconds(self.half_width)}"
        )


def summarize(
    samples: Sequence[float], confidence: float = 0.95
) -> SummaryStats:
    """Mean, sample std and Student-t confidence interval of *samples*."""
    if not samples:
        raise ExperimentError("cannot summarise an empty sample")
    if not 0.0 < confidence < 1.0:
        raise ExperimentError("confidence must lie strictly in (0, 1)")
    n = len(samples)
    mean = ordered_sum(samples) / n
    if n == 1:
        return SummaryStats(1, mean, 0.0, mean, mean, confidence)
    variance = ordered_sum((x - mean) ** 2 for x in samples) / (n - 1)
    std = math.sqrt(variance)
    from scipy import stats as scipy_stats

    t = float(scipy_stats.t.ppf(0.5 + confidence / 2, df=n - 1))
    half = t * std / math.sqrt(n)
    return SummaryStats(n, mean, std, mean - half, mean + half, confidence)


def win_matrix(
    result: ExperimentResult, metric: str = "execution"
) -> dict[tuple[str, str], int]:
    """Per-instance pairwise wins: ``matrix[(a, b)]`` counts instances
    where algorithm *a* strictly beats *b* on *metric*.

    *metric* is ``"execution"``, ``"penalty"`` or ``"objective"``.
    """
    extractors = {
        "execution": lambda record: record.cost.execution_time,
        "penalty": lambda record: record.cost.time_penalty,
        "objective": lambda record: record.cost.objective,
    }
    if metric not in extractors:
        raise ExperimentError(
            f"metric must be one of {sorted(extractors)}, got {metric!r}"
        )
    extract = extractors[metric]
    algorithms = result.algorithms()
    by_repetition: dict[int, dict[str, float]] = {}
    for record in result.records:
        by_repetition.setdefault(record.repetition, {})[record.algorithm] = (
            extract(record)
        )
    matrix = {
        (a, b): 0 for a in algorithms for b in algorithms if a != b
    }
    for values in by_repetition.values():
        for a in algorithms:
            for b in algorithms:
                if a != b and values[a] < values[b]:
                    matrix[(a, b)] += 1
    return matrix


def comparison_table(
    result: ExperimentResult,
    metric: str = "execution",
    confidence: float = 0.95,
) -> TextTable:
    """Mean ± CI per algorithm plus total pairwise wins on *metric*."""
    extractors = {
        "execution": lambda record: record.cost.execution_time,
        "penalty": lambda record: record.cost.time_penalty,
        "objective": lambda record: record.cost.objective,
    }
    if metric not in extractors:
        raise ExperimentError(
            f"metric must be one of {sorted(extractors)}, got {metric!r}"
        )
    extract = extractors[metric]
    matrix = win_matrix(result, metric)
    table = TextTable(
        ["algorithm", f"{metric} (mean +/- CI{confidence:.0%})", "wins"],
        title=result.config.describe(),
    )
    for name in result.algorithms():
        samples = [extract(r) for r in result.records_for(name)]
        wins = sum(
            count for (a, _b), count in matrix.items() if a == name
        )
        table.add_row([name, summarize(samples, confidence).format(), wins])
    return table
