"""Genetic-algorithm deployment (an extension beyond the paper).

A straightforward GA over complete mappings, included as a stronger
stochastic baseline than simulated annealing for the ablation benches:

* a chromosome is the tuple of server choices, one gene per operation;
* fitness is the negative scalar objective of the cost model; each
  generation's population is scored in **one**
  :class:`~repro.core.batch.BatchEvaluator` kernel call (bit-identical
  to per-genome :meth:`~repro.core.compiled.CompiledInstance.components`
  pricing, and much faster);
* tournament selection, uniform crossover, per-gene reset mutation,
  elitism of the single best individual;
* the initial population mixes random mappings with the greedy suite's
  results so the GA starts no worse than the paper's heuristics;
* one generation is one :class:`~repro.algorithms.runtime.SearchStep`,
  so a deadline or evaluation budget stops evolution between
  generations and returns the best individual seen so far.
"""

from __future__ import annotations

from typing import Iterator

from repro.algorithms.base import (
    DeploymentAlgorithm,
    ProblemContext,
    register_algorithm,
)
from repro.algorithms.fair_load import FairLoad
from repro.algorithms.heavy_ops import HeavyOpsLargeMsgs
from repro.algorithms.runtime import SearchBudget, SearchStep
from repro.core.mapping import Deployment
from repro.exceptions import AlgorithmError

__all__ = ["GeneticAlgorithm"]


@register_algorithm
class GeneticAlgorithm(DeploymentAlgorithm):
    """Population-based search over deployments.

    Parameters
    ----------
    population_size:
        Individuals per generation (>= 2).
    generations:
        Number of evolution steps.
    crossover_rate:
        Probability a child mixes two parents (else clones one).
    mutation_rate:
        Per-gene probability of a random server reset.
    tournament:
        Tournament size for parent selection.
    seed_with_heuristics:
        Include FairLoad's and HeavyOps-LargeMsgs' mappings in the
        initial population (on by default; the GA is then an *improver*).
    """

    name = "Genetic"

    def __init__(
        self,
        population_size: int = 30,
        generations: int = 40,
        crossover_rate: float = 0.9,
        mutation_rate: float = 0.05,
        tournament: int = 3,
        seed_with_heuristics: bool = True,
    ):
        self.population_size = SearchBudget.validate_count(
            "population_size", population_size, minimum=2
        )
        self.generations = SearchBudget.validate_count(
            "generations", generations
        )
        if not 0.0 <= crossover_rate <= 1.0:
            raise AlgorithmError("crossover_rate must lie in [0, 1]")
        if not 0.0 <= mutation_rate <= 1.0:
            raise AlgorithmError("mutation_rate must lie in [0, 1]")
        self.tournament = SearchBudget.validate_count(
            "tournament", tournament
        )
        self.crossover_rate = crossover_rate
        self.mutation_rate = mutation_rate
        self.seed_with_heuristics = seed_with_heuristics

    def _deploy(self, context: ProblemContext) -> Deployment:
        return context.search(self._steps(context)).best

    def _steps(self, context: ProblemContext) -> Iterator[SearchStep]:
        rng = context.rng
        cost_model = context.cost_model
        operations = context.workflow.operation_names
        servers = context.network.server_names
        batch = cost_model.compiled.batch_evaluator()

        def random_genome() -> tuple[str, ...]:
            return tuple(rng.choice(servers) for _ in operations)

        def genome_of(deployment: Deployment) -> tuple[str, ...]:
            return tuple(deployment.server_of(name) for name in operations)

        def score_population(
            genomes: list[tuple[str, ...]],
        ) -> list[float]:
            # one kernel call per generation
            objectives = batch.evaluate(batch.index_batch(genomes))
            return [-float(v) for v in objectives.objective]

        population: list[tuple[str, ...]] = []
        if self.seed_with_heuristics:
            for algorithm in (FairLoad(), HeavyOpsLargeMsgs()):
                population.append(
                    genome_of(
                        algorithm.deploy(
                            context.workflow,
                            context.network,
                            cost_model=cost_model,
                            rng=rng,
                        )
                    )
                )
        while len(population) < self.population_size:
            population.append(random_genome())
        scores = score_population(population)

        def snapshot_of(genome: tuple[str, ...]):
            return lambda: Deployment(dict(zip(operations, genome)))

        def select() -> tuple[str, ...]:
            best_index = rng.randrange(len(population))
            for _ in range(self.tournament - 1):
                challenger = rng.randrange(len(population))
                if scores[challenger] > scores[best_index]:
                    best_index = challenger
            return population[best_index]

        elite_index = max(range(len(population)), key=scores.__getitem__)
        yield SearchStep(
            -scores[elite_index],
            snapshot_of(population[elite_index]),
            evals=len(population),
        )
        for _ in range(self.generations):
            next_population = [population[elite_index]]
            while len(next_population) < self.population_size:
                parent_a = select()
                if rng.random() < self.crossover_rate:
                    parent_b = select()
                    child = tuple(
                        a if rng.random() < 0.5 else b
                        for a, b in zip(parent_a, parent_b)
                    )
                else:
                    child = parent_a
                if len(servers) > 1:
                    child = tuple(
                        rng.choice(servers)
                        if rng.random() < self.mutation_rate
                        else gene
                        for gene in child
                    )
                next_population.append(child)
            population = next_population
            scores = score_population(population)
            # elitism keeps the champion at index 0, so the first max
            # is the first genome ever to reach the current best score
            # -- exactly the incumbent the runtime tracks
            elite_index = max(range(len(population)), key=scores.__getitem__)
            yield SearchStep(
                -scores[elite_index],
                snapshot_of(population[elite_index]),
                evals=len(population),
            )
