"""Random baseline and the sampling-based quality protocol (section 4.1).

The paper assesses solution quality by sampling 32 000 random mappings
per configuration (out of search spaces up to ``10**13``) and reporting
each heuristic's deviation from the best sampled execution time and time
penalty. :class:`SolutionSampler` implements that protocol;
:class:`RandomMapping` wraps a single uniform draw as a baseline
algorithm so it can sit in the same figures as the heuristics.

The sampler runs on the shared
:class:`~repro.algorithms.runtime.SearchRuntime` -- one draw is one
step -- so the 32 000-draw protocol accepts a
:class:`~repro.algorithms.runtime.SearchBudget` (deadline, evaluation
cap) and still returns well-formed statistics over
the draws actually made (check ``SampleStatistics.report``).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator

from repro.algorithms.base import (
    DeploymentAlgorithm,
    ProblemContext,
    register_algorithm,
)
from repro.algorithms.runtime import (
    SearchBudget,
    SearchReport,
    SearchRuntime,
    SearchStep,
)
from repro.core.clock import Clock
from repro.core.cost import CostBreakdown, CostModel
from repro.core.mapping import Deployment
from repro.core.workflow import Workflow
from repro.exceptions import DeploymentError
from repro.network.topology import ServerNetwork
from repro.numeric import ordered_sum

__all__ = [
    "RandomMapping",
    "SolutionSampler",
    "SampleStatistics",
    "DEFAULT_SAMPLE_BLOCK",
]

#: Sample count the paper uses per configuration.
PAPER_SAMPLE_COUNT = 32_000


@register_algorithm
class RandomMapping(DeploymentAlgorithm):
    """Uniformly random deployment -- the unskilled baseline."""

    name = "Random"

    def _deploy(self, context: ProblemContext) -> Deployment:
        return Deployment.random(context.workflow, context.network, context.rng)


@dataclass(frozen=True)
class SampleStatistics:
    """Aggregates over one sampling run.

    Attributes
    ----------
    samples:
        Number of mappings actually drawn (fewer than requested when a
        budget cut the run short).
    best_objective:
        The best sampled mapping by scalar objective, with its cost.
    best_execution_time:
        Minimum ``Texecute`` observed across all samples (not necessarily
        the same mapping as the best penalty -- the paper's deviation
        metric treats the two dimensions independently).
    best_time_penalty:
        Minimum fairness penalty observed across all samples.
    worst_objective_value:
        Largest scalar objective seen (for range context in reports).
    report:
        The :class:`~repro.algorithms.runtime.SearchReport` of the
        sampling run (one step per draw); ``report.exhausted`` tells
        whether the full requested draw count completed.
    """

    samples: int
    best_objective: "tuple[Deployment, CostBreakdown]"
    best_execution_time: float
    best_time_penalty: float
    worst_objective_value: float
    report: SearchReport | None = None

    def execution_deviation(self, cost: CostBreakdown) -> float:
        """Relative gap of *cost*'s ``Texecute`` vs the sampled best.

        Matches the paper's "(2.9%, 12%) deviations for execution
        time/time penalty" quality numbers: 0.029 means 2.9% slower than
        the best sampled execution time. Clamped at 0 from below (a
        heuristic may beat every sample).
        """
        best = self.best_execution_time
        if best <= 0:
            return 0.0
        return max(0.0, cost.execution_time / best - 1.0)

    def penalty_deviation(self, cost: CostBreakdown) -> float:
        """Relative gap of *cost*'s ``TimePenalty`` vs the sampled best.

        When the sampled best penalty is 0 (a perfectly fair mapping was
        drawn), the deviation is 0 if the heuristic also achieves 0 and
        measured against the mean server load otherwise, keeping the
        metric finite.

        Caveat: with large sample counts the best sampled penalty
        approaches 0 and this ratio becomes ill-conditioned -- a 20 ms
        penalty against a 1 ms sampled best reads as 1900 % even though
        both are small against a 40 ms mean load. Use
        :meth:`penalty_gap_vs_load` for a scale-stable reading.
        """
        best = self.best_time_penalty
        if best > 0:
            return max(0.0, cost.time_penalty / best - 1.0)
        if cost.time_penalty <= 0:
            return 0.0
        loads = list(cost.loads.values())
        scale = ordered_sum(loads) / len(loads) if loads else 1.0
        return cost.time_penalty / scale if scale > 0 else float("inf")

    def penalty_gap_vs_load(self, cost: CostBreakdown) -> float:
        """Penalty gap to the sampled best, normalised by the mean load.

        ``(penalty - best_sampled_penalty) / mean_server_load``, clamped
        at 0: "how much extra unfairness, as a fraction of the time a
        server works anyway". Well-conditioned even when the sampled
        best penalty is near 0, which makes it the metric comparable in
        magnitude to the paper's quoted (x%, y%) pairs.
        """
        gap = max(0.0, cost.time_penalty - self.best_time_penalty)
        loads = list(cost.loads.values())
        if not loads:
            return 0.0
        scale = ordered_sum(loads) / len(loads)
        return gap / scale if scale > 0 else float("inf")


#: Default number of draws the sampler scores per batch kernel call.
DEFAULT_SAMPLE_BLOCK = 1024


class SolutionSampler:
    """Draw ``k`` random mappings and track the best along each dimension.

    Parameters
    ----------
    samples:
        Number of uniform draws (paper: 32 000).
    block:
        Draws scored per :class:`~repro.core.batch.BatchEvaluator`
        kernel call (default 1024). The per-draw statistics, steps and
        results are bit-identical for every block size; the block only
        sets the vectorisation width.
    """

    def __init__(
        self,
        samples: int = PAPER_SAMPLE_COUNT,
        block: int = DEFAULT_SAMPLE_BLOCK,
    ):
        self.samples = SearchBudget.validate_count("samples", samples)
        self.block = SearchBudget.validate_count("block", block)

    def run(
        self,
        workflow: Workflow,
        network: ServerNetwork,
        cost_model: CostModel,
        rng,
        budget: SearchBudget | None = None,
        clock: Clock | None = None,
    ) -> SampleStatistics:
        """Sample and aggregate; *rng* is ``random.Random``-like.

        Samples are scored a block at a time through the shared
        :class:`~repro.core.batch.BatchEvaluator` (one kernel call per
        :attr:`block` draws -- the 32 000-draw protocol's dominant
        cost). Genomes are drawn with exactly the rng calls
        ``Deployment.random`` makes, keeping seeded runs byte-identical
        to the full-evaluation protocol in every block configuration;
        only the single best-objective sample is materialised and
        evaluated in full at the end.

        One draw is one runtime step, so *budget* and *clock* behave
        exactly as for
        :meth:`~repro.algorithms.base.DeploymentAlgorithm.deploy`; the
        statistics then aggregate the draws actually made. (One caveat
        under a *binding* budget: blocks are drawn ahead of scoring, so
        the rng may sit up to one block further along its stream after
        an early stop than ``block=1`` would leave it; statistics and
        results still cover exactly the consumed draws.)
        """
        operations = workflow.operation_names
        servers = network.server_names
        if not servers:
            raise DeploymentError("network has no servers")
        batch = cost_model.compiled.batch_evaluator()
        # per-dimension extrema live outside the generator so the
        # aggregates survive an early (budget) stop
        state = {
            "drawn": 0,
            "best_execution": float("inf"),
            "best_penalty": float("inf"),
            "worst_objective": float("-inf"),
        }

        def draws() -> Iterator[SearchStep]:
            remaining = self.samples
            while remaining > 0:
                size = min(self.block, remaining)
                genomes = [
                    tuple(rng.choice(servers) for _ in operations)
                    for _ in range(size)
                ]
                scores = batch.evaluate(batch.index_batch(genomes))
                remaining -= size
                for genome, execution, penalty, objective in zip(
                    genomes,
                    scores.execution.tolist(),
                    scores.penalty.tolist(),
                    scores.objective.tolist(),
                ):
                    state["drawn"] += 1
                    state["best_execution"] = min(
                        state["best_execution"], execution
                    )
                    state["best_penalty"] = min(
                        state["best_penalty"], penalty
                    )
                    state["worst_objective"] = max(
                        state["worst_objective"], objective
                    )
                    yield SearchStep(
                        objective,
                        lambda g=genome: Deployment(dict(zip(operations, g))),
                        evals=1,
                    )

        outcome = SearchRuntime(budget=budget, clock=clock).run(draws())
        best_deployment = outcome.best
        best_pair = (best_deployment, cost_model.evaluate(best_deployment))
        return SampleStatistics(
            samples=state["drawn"],
            best_objective=best_pair,
            best_execution_time=state["best_execution"],
            best_time_penalty=state["best_penalty"],
            worst_objective_value=state["worst_objective"],
            report=outcome.report,
        )
