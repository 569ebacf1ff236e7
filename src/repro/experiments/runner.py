"""Generate instances, run algorithm suites, aggregate results.

One :class:`ExperimentConfig` describes a family of problem instances
(workflow shape and size, server count, parameter mixtures, bus speed);
:class:`ExperimentRunner` materialises ``repetitions`` instances from a
seed, runs every requested algorithm on each, and returns an
:class:`ExperimentResult` whose accessors produce exactly the series the
paper plots: per-algorithm (Texecute, TimePenalty) scatter points and
their means.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

from repro.algorithms.base import DeploymentAlgorithm, get_algorithm
from repro.algorithms.runtime import SearchBudget, SearchReport
from repro.algorithms.sampling import SolutionSampler
from repro.core.cost import CostBreakdown, CostModel
from repro.core.mapping import Deployment
from repro.core.rng import coerce_rng
from repro.core.workflow import Workflow
from repro.exceptions import ExperimentError
from repro.network.topology import ServerNetwork
from repro.numeric import ordered_sum
from repro.tables import TextTable, format_seconds
from repro.workloads.generator import (
    GraphStructure,
    line_workflow,
    random_bus_network,
    random_graph_workflow,
    random_line_network,
)
from repro.workloads.parameters import ClassCParameters

__all__ = [
    "ExperimentConfig",
    "RunRecord",
    "ExperimentResult",
    "ExperimentRunner",
    "DEFAULT_ALGORITHMS",
    "RANDOM_BASELINE",
]

#: The algorithm suite of the paper's bus figures, in figure order.
DEFAULT_ALGORITHMS = (
    "FairLoad",
    "FL-TieResolver",
    "FL-TieResolver2",
    "FL-MergeMsgEnds",
    "HeavyOps-LargeMsgs",
)

#: Label of the best-of-random-samples baseline records (see
#: ``ExperimentRunner(random_baseline_samples=...)``).
RANDOM_BASELINE = "RandomBest"

_WORKFLOW_KINDS = ("line", "bushy", "lengthy", "hybrid")
_NETWORK_KINDS = ("bus", "line")


@dataclass(frozen=True)
class ExperimentConfig:
    """One experiment family: how instances are generated.

    Attributes
    ----------
    workflow_kind:
        ``"line"`` or one of the random-graph structures
        (``"bushy"``/``"lengthy"``/``"hybrid"``).
    num_operations, num_servers:
        ``M`` and ``N``. The paper's headline configuration is M=19, N=5
        (K = M/N ~ 4).
    network_kind:
        ``"bus"`` (sections 3.3/3.4) or ``"line"`` (section 3.2).
    parameters:
        The mixtures used for all sampled quantities (Table 6 default).
    bus_speed_bps:
        When set, pins the bus/link speed instead of sampling it --
        Figs. 6-8 are reported per bus speed.
    repetitions:
        Instances generated per run.
    seed:
        Root seed; instance ``i`` derives its own RNG from it.
    label:
        Free-form name used in tables.
    """

    workflow_kind: str = "line"
    num_operations: int = 19
    num_servers: int = 5
    network_kind: str = "bus"
    parameters: ClassCParameters = field(default_factory=ClassCParameters.paper)
    bus_speed_bps: float | None = None
    repetitions: int = 10
    seed: int = 0
    label: str = ""

    def __post_init__(self) -> None:
        if self.workflow_kind not in _WORKFLOW_KINDS:
            raise ExperimentError(
                f"workflow_kind must be one of {_WORKFLOW_KINDS}, got "
                f"{self.workflow_kind!r}"
            )
        if self.network_kind not in _NETWORK_KINDS:
            raise ExperimentError(
                f"network_kind must be one of {_NETWORK_KINDS}, got "
                f"{self.network_kind!r}"
            )
        if self.num_operations < 1 or self.num_servers < 1:
            raise ExperimentError("num_operations and num_servers must be >= 1")
        if self.repetitions < 1:
            raise ExperimentError("repetitions must be >= 1")

    @property
    def effective_parameters(self) -> ClassCParameters:
        """Parameters with the bus speed pinned when requested."""
        if self.bus_speed_bps is None:
            return self.parameters
        return self.parameters.with_fixed_bus_speed(self.bus_speed_bps)

    def describe(self) -> str:
        """Short label for tables."""
        if self.label:
            return self.label
        speed = (
            f"{self.bus_speed_bps / 1e6:g}Mbps"
            if self.bus_speed_bps is not None
            else "mixed-speed"
        )
        return (
            f"{self.workflow_kind}/{self.network_kind} M={self.num_operations} "
            f"N={self.num_servers} {speed}"
        )

    def instance(self, index: int) -> tuple[Workflow, ServerNetwork]:
        """Materialise instance *index* (deterministic in ``seed``)."""
        rng = coerce_rng(f"{self.seed}:{index}")
        parameters = self.effective_parameters
        if self.workflow_kind == "line":
            workflow = line_workflow(
                self.num_operations, seed=rng, parameters=parameters
            )
        else:
            workflow = random_graph_workflow(
                self.num_operations,
                structure=GraphStructure[self.workflow_kind.upper()],
                seed=rng,
                parameters=parameters,
            )
        if self.network_kind == "bus":
            network = random_bus_network(
                self.num_servers, seed=rng, parameters=parameters
            )
        else:
            network = random_line_network(
                self.num_servers, seed=rng, parameters=parameters
            )
        return workflow, network


@dataclass(frozen=True)
class RunRecord:
    """One algorithm run on one instance.

    ``report`` is the run's
    :class:`~repro.algorithms.runtime.SearchReport` -- evaluation
    counts, the anytime best-so-far curve and the stop reason -- or
    ``None`` for non-iterative (greedy) algorithms.
    """

    algorithm: str
    repetition: int
    cost: CostBreakdown
    deployment: Deployment
    report: SearchReport | None = None


@dataclass
class ExperimentResult:
    """All runs of one configuration, with figure-ready accessors."""

    config: ExperimentConfig
    records: list[RunRecord] = field(default_factory=list)

    def algorithms(self) -> tuple[str, ...]:
        """Algorithm names present, in first-seen order."""
        return tuple(dict.fromkeys(record.algorithm for record in self.records))

    def records_for(self, algorithm: str) -> list[RunRecord]:
        """All records of one algorithm."""
        return [r for r in self.records if r.algorithm == algorithm]

    def scatter_points(self) -> dict[str, list[tuple[float, float]]]:
        """Per-algorithm (Texecute, TimePenalty) points -- figure data."""
        points: dict[str, list[tuple[float, float]]] = {}
        for record in self.records:
            points.setdefault(record.algorithm, []).append(
                (record.cost.execution_time, record.cost.time_penalty)
            )
        return points

    def mean_execution_time(self, algorithm: str) -> float:
        """Mean ``Texecute`` of one algorithm over the repetitions."""
        records = self.records_for(algorithm)
        if not records:
            raise ExperimentError(f"no records for algorithm {algorithm!r}")
        return ordered_sum(r.cost.execution_time for r in records) / len(records)

    def mean_time_penalty(self, algorithm: str) -> float:
        """Mean fairness penalty of one algorithm over the repetitions."""
        records = self.records_for(algorithm)
        if not records:
            raise ExperimentError(f"no records for algorithm {algorithm!r}")
        return ordered_sum(r.cost.time_penalty for r in records) / len(records)

    def mean_objective(self, algorithm: str) -> float:
        """Mean scalar objective of one algorithm."""
        records = self.records_for(algorithm)
        if not records:
            raise ExperimentError(f"no records for algorithm {algorithm!r}")
        return ordered_sum(r.cost.objective for r in records) / len(records)

    def winner_by_execution(self) -> str:
        """Algorithm with the best mean execution time."""
        return min(self.algorithms(), key=self.mean_execution_time)

    def winner_by_penalty(self) -> str:
        """Algorithm with the best mean fairness."""
        return min(self.algorithms(), key=self.mean_time_penalty)

    def summary_table(self) -> TextTable:
        """Mean metrics per algorithm, one row each."""
        table = TextTable(
            ["algorithm", "mean_Texecute", "mean_TimePenalty", "mean_objective"],
            title=self.config.describe(),
        )
        for name in self.algorithms():
            table.add_row(
                [
                    name,
                    format_seconds(self.mean_execution_time(name)),
                    format_seconds(self.mean_time_penalty(name)),
                    format_seconds(self.mean_objective(name)),
                ]
            )
        return table


def _run_repetition(job) -> list[RunRecord]:
    """One repetition's full suite (module-level: picklable for pools).

    Every run's RNG derives from ``f"{seed}:{repetition}:{name}"`` --
    a pure function of the record's identity, never of scheduling -- so
    the records are byte-identical whether repetitions run in this
    process or are fanned out across workers.
    """
    config, repetition, algorithms, budget, baseline_samples = job
    records: list[RunRecord] = []
    workflow, network = config.instance(repetition)
    cost_model = CostModel(workflow, network)
    for name, algorithm in algorithms:
        rng = coerce_rng(f"{config.seed}:{repetition}:{name}")
        deployment, report = algorithm.deploy_with_report(
            workflow,
            network,
            cost_model=cost_model,
            rng=rng,
            budget=budget,
        )
        records.append(
            RunRecord(
                algorithm=name,
                repetition=repetition,
                cost=cost_model.evaluate(deployment),
                deployment=deployment,
                report=report,
            )
        )
    if baseline_samples > 0:
        sampler = SolutionSampler(baseline_samples)
        statistics = sampler.run(
            workflow,
            network,
            cost_model,
            coerce_rng(f"{config.seed}:{repetition}:random-baseline"),
        )
        best_deployment, best_cost = statistics.best_objective
        records.append(
            RunRecord(
                algorithm=RANDOM_BASELINE,
                repetition=repetition,
                cost=best_cost,
                deployment=best_deployment,
                report=statistics.report,
            )
        )
    return records


class ExperimentRunner:
    """Run an algorithm suite over the instances of a configuration.

    Parameters
    ----------
    algorithms:
        Names (looked up in the registry) or ready instances. Instances
        let callers pass configured variants (e.g. ``LineLine(
        fix_bridges=False)``).
    budget:
        Optional :class:`~repro.algorithms.runtime.SearchBudget`
        applied to every deploy call: iterative algorithms stop at the
        first binding limit and their best-so-far incumbent is scored.
        The per-run reports (anytime curves included) land on the
        :class:`RunRecord`.
    random_baseline_samples:
        When > 0, each instance additionally gets a
        :data:`RANDOM_BASELINE` record: the best of this many uniform
        random mappings, scored in blocks through the shared batch
        kernel. The paper's "best sampled solution" reference as a
        figure series.
    workers:
        When > 1, repetitions are fanned out across that many worker
        processes (algorithm instances must then be picklable). Results
        are byte-identical to the serial run: each record's RNG stream
        is derived from its ``(seed, repetition, algorithm)`` identity
        and records are collected in repetition order.
    """

    def __init__(
        self,
        algorithms: Sequence[str | DeploymentAlgorithm] = DEFAULT_ALGORITHMS,
        budget: SearchBudget | None = None,
        random_baseline_samples: int = 0,
        workers: int = 1,
    ):
        if not algorithms:
            raise ExperimentError("at least one algorithm is required")
        if random_baseline_samples < 0:
            raise ExperimentError("random_baseline_samples must be >= 0")
        if workers < 1:
            raise ExperimentError("workers must be >= 1")
        self._algorithms: list[tuple[str, DeploymentAlgorithm]] = []
        for entry in algorithms:
            if isinstance(entry, DeploymentAlgorithm):
                self._algorithms.append((entry.name, entry))
            else:
                self._algorithms.append((entry, get_algorithm(entry)()))
        self.budget = budget
        self.random_baseline_samples = random_baseline_samples
        self.workers = workers

    @property
    def algorithm_names(self) -> tuple[str, ...]:
        """The suite's names, in run order."""
        return tuple(name for name, _ in self._algorithms)

    def run(self, config: ExperimentConfig) -> ExperimentResult:
        """Execute the full suite on every instance of *config*."""
        result = ExperimentResult(config=config)
        jobs = [
            (
                config,
                repetition,
                self._algorithms,
                self.budget,
                self.random_baseline_samples,
            )
            for repetition in range(config.repetitions)
        ]
        if self.workers > 1 and config.repetitions > 1:
            from concurrent.futures import ProcessPoolExecutor

            with ProcessPoolExecutor(
                max_workers=min(self.workers, config.repetitions)
            ) as pool:
                for records in pool.map(_run_repetition, jobs):
                    result.records.extend(records)
        else:
            for job in jobs:
                result.records.extend(_run_repetition(job))
        return result

    def run_many(
        self, configs: Sequence[ExperimentConfig]
    ) -> list[ExperimentResult]:
        """Run a list of configurations (a sweep)."""
        return [self.run(config) for config in configs]

    def sweep_table(
        self,
        configs: Sequence[ExperimentConfig],
        metric: str = "execution",
    ) -> TextTable:
        """One row per configuration, one column per algorithm.

        *metric* is ``"execution"``, ``"penalty"`` or ``"objective"``.
        """
        metric_fns = {
            "execution": ExperimentResult.mean_execution_time,
            "penalty": ExperimentResult.mean_time_penalty,
            "objective": ExperimentResult.mean_objective,
        }
        if metric not in metric_fns:
            raise ExperimentError(
                f"metric must be one of {sorted(metric_fns)}, got {metric!r}"
            )
        fn = metric_fns[metric]
        table = TextTable(
            ["configuration", *self.algorithm_names],
            title=f"mean {metric} per algorithm",
        )
        for result in self.run_many(configs):
            table.add_row(
                [
                    result.config.describe(),
                    *(
                        format_seconds(fn(result, name))
                        for name in self.algorithm_names
                    ),
                ]
            )
        return table
