"""The sampling-based solution-quality protocol of section 4.1.

The paper: "To assess the quality of our solutions, we have performed
sampling of solutions with configurations with varying number of servers
(3-5) and operations (5-19). We report worst case numbers of 50
experiments over a configuration of 5 servers and 19 operations. Each
sample involved 32,000 potential solutions."

:class:`QualityProtocol` reruns that assessment: per experiment it draws
an instance, samples ``samples`` random mappings to estimate the best
reachable execution time and time penalty independently, runs each
heuristic once, and records its relative deviations. The report keeps
both the worst case (what the paper quotes) and the mean.

Paper anchor values for HeavyOps-LargeMsgs (worst case over 50
experiments): Line--Bus (2.9 %, 12 %) at 1 Mbps and (29 %, 0.3 %) at
100 Mbps; Graph--Bus (29 %, 1.8 %) at 1 Mbps and (0 %, 0 %) at 100 Mbps.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

from repro.algorithms.base import DeploymentAlgorithm, get_algorithm
from repro.algorithms.runtime import SearchBudget, SearchReport
from repro.algorithms.sampling import DEFAULT_SAMPLE_BLOCK, SolutionSampler
from repro.core.cost import CostModel
from repro.core.rng import coerce_rng
from repro.exceptions import ExperimentError
from repro.experiments.reporting import format_percent
from repro.experiments.runner import DEFAULT_ALGORITHMS, ExperimentConfig
from repro.numeric import ordered_sum
from repro.tables import TextTable

__all__ = ["QualityProtocol", "QualityReport", "DeviationRecord"]


@dataclass(frozen=True)
class DeviationRecord:
    """One algorithm's deviations on one experiment instance.

    ``report`` carries the run's
    :class:`~repro.algorithms.runtime.SearchReport` (anytime curve,
    stop reason) for iterative algorithms under a budget; ``None`` for
    the greedy suite.
    """

    algorithm: str
    experiment: int
    execution_deviation: float
    penalty_deviation: float
    penalty_gap_vs_load: float = 0.0
    report: SearchReport | None = None


@dataclass
class QualityReport:
    """Aggregated deviations of every algorithm over all experiments."""

    config: ExperimentConfig
    samples: int
    records: list[DeviationRecord] = field(default_factory=list)

    def algorithms(self) -> tuple[str, ...]:
        """Algorithm names present, in first-seen order."""
        return tuple(dict.fromkeys(r.algorithm for r in self.records))

    def _records_for(self, algorithm: str) -> list[DeviationRecord]:
        records = [r for r in self.records if r.algorithm == algorithm]
        if not records:
            raise ExperimentError(f"no records for algorithm {algorithm!r}")
        return records

    def worst_case(self, algorithm: str) -> tuple[float, float]:
        """Worst (execution, penalty) deviation -- the paper's metric."""
        records = self._records_for(algorithm)
        return (
            max(r.execution_deviation for r in records),
            max(r.penalty_deviation for r in records),
        )

    def worst_penalty_gap(self, algorithm: str) -> float:
        """Worst load-normalised penalty gap (scale-stable fairness metric)."""
        records = self._records_for(algorithm)
        return max(r.penalty_gap_vs_load for r in records)

    def mean(self, algorithm: str) -> tuple[float, float]:
        """Mean (execution, penalty) deviation."""
        records = self._records_for(algorithm)
        count = len(records)
        return (
            ordered_sum(r.execution_deviation for r in records) / count,
            ordered_sum(r.penalty_deviation for r in records) / count,
        )

    def table(self) -> TextTable:
        """One row per algorithm: worst-case and mean deviations."""
        table = TextTable(
            [
                "algorithm",
                "worst_exec_dev",
                "worst_penalty_dev",
                "worst_pen_gap/load",
                "mean_exec_dev",
                "mean_penalty_dev",
            ],
            title=(
                f"deviation from best of {self.samples} sampled solutions "
                f"({self.config.describe()})"
            ),
        )
        for name in self.algorithms():
            worst = self.worst_case(name)
            mean = self.mean(name)
            table.add_row(
                [
                    name,
                    format_percent(worst[0]),
                    format_percent(worst[1]),
                    format_percent(self.worst_penalty_gap(name)),
                    format_percent(mean[0]),
                    format_percent(mean[1]),
                ]
            )
        return table


class QualityProtocol:
    """Run the deviation-from-sampled-best assessment.

    Parameters
    ----------
    algorithms:
        Suite to assess (names or instances).
    experiments:
        Number of independent instances (paper: 50).
    samples:
        Random mappings sampled per instance (paper: 32 000). The
        defaults are scaled down so the protocol runs in seconds; pass
        the paper values for a full-fidelity run.
    budget:
        Optional :class:`~repro.algorithms.runtime.SearchBudget`
        applied to every assessed deploy call (the sampling baseline
        itself is left unbudgeted -- it defines the reference the
        deviations are measured against).
    sample_block:
        Draws the sampling baseline scores per batch kernel call --
        forwarded to :class:`~repro.algorithms.sampling.SolutionSampler`
        (results are bit-identical for every block size).
    """

    def __init__(
        self,
        algorithms: Sequence[str | DeploymentAlgorithm] = DEFAULT_ALGORITHMS,
        experiments: int = 10,
        samples: int = 2_000,
        budget: SearchBudget | None = None,
        sample_block: int = DEFAULT_SAMPLE_BLOCK,
    ):
        if experiments < 1:
            raise ExperimentError("experiments must be >= 1")
        self._algorithms: list[tuple[str, DeploymentAlgorithm]] = []
        for entry in algorithms:
            if isinstance(entry, DeploymentAlgorithm):
                self._algorithms.append((entry.name, entry))
            else:
                self._algorithms.append((entry, get_algorithm(entry)()))
        self.experiments = experiments
        self.sampler = SolutionSampler(samples, block=sample_block)
        self.budget = budget

    def run(self, config: ExperimentConfig) -> QualityReport:
        """Assess the suite on *config*'s instance family."""
        report = QualityReport(config=config, samples=self.sampler.samples)
        for experiment in range(self.experiments):
            workflow, network = config.instance(experiment)
            cost_model = CostModel(workflow, network)
            sample_rng = coerce_rng(f"{config.seed}:{experiment}:sample")
            statistics = self.sampler.run(
                workflow, network, cost_model, sample_rng
            )
            for name, algorithm in self._algorithms:
                rng = coerce_rng(f"{config.seed}:{experiment}:{name}")
                deployment, run_report = algorithm.deploy_with_report(
                    workflow,
                    network,
                    cost_model=cost_model,
                    rng=rng,
                    budget=self.budget,
                )
                cost = cost_model.evaluate(deployment)
                report.records.append(
                    DeviationRecord(
                        algorithm=name,
                        experiment=experiment,
                        execution_deviation=statistics.execution_deviation(
                            cost
                        ),
                        penalty_deviation=statistics.penalty_deviation(cost),
                        penalty_gap_vs_load=statistics.penalty_gap_vs_load(
                            cost
                        ),
                        report=run_report,
                    )
                )
        return report
