"""Local-search refinement (an extension beyond the paper's greedies).

Section 6 leaves deeper optimisation as future work; these two algorithms
fill that gap and double as upper baselines in the ablation benchmarks.
Both explore the *move* neighbourhood -- relocate one operation to another
server -- over the cost model's scalar objective:

* :class:`HillClimbing` -- steepest-descent until no move improves (or an
  iteration cap is hit). Deterministic given its starting mapping.
* :class:`SimulatedAnnealing` -- classic Metropolis acceptance with a
  geometric cooling schedule; escapes the local optima hill climbing gets
  stuck in, at the price of more evaluations.

Candidate moves are priced through the
:class:`~repro.core.incremental.MoveEvaluator`: a hill-climbing round
is one vectorised :meth:`~repro.core.incremental.MoveEvaluator.scan`
and an annealing proposal one dirty-region forward pass, instead of a
full ``CostModel.objective()`` per candidate. The full-evaluation
searches live on as test oracles (``FullEvaluationHillClimbing`` and
``FullEvaluationAnnealing`` in ``tests/oracles.py``). The evaluator
derives a move's two server loads from running sums, which can differ
from a from-scratch sum by ulps, so the oracles agree on solution
quality but may break a near-tie differently (the regression tests pin
fixtures where they return the same deployment, and the benchmarks
measure the speedup between them).

Both are expressed as step generators driven by the shared
:class:`~repro.algorithms.runtime.SearchRuntime`: one hill-climbing
round or one annealing proposal is one step, incumbent tracking lives
in the runtime, and any :class:`~repro.algorithms.runtime.SearchBudget`
(deadline, evaluation cap) or cancel token stops the search at a step
boundary with a valid best-so-far deployment.

Each accepts any registered algorithm (or explicit deployment) as its
starting point, so they compose naturally: ``HillClimbing(seed_algorithm=
HeavyOpsLargeMsgs())`` polishes the paper's winner.
"""

from __future__ import annotations

import math
from typing import Iterator

from repro.algorithms.base import (
    DeploymentAlgorithm,
    ProblemContext,
    register_algorithm,
)
from repro.algorithms.runtime import SearchBudget, SearchStep
from repro.core.incremental import MoveEvaluator
from repro.core.mapping import Deployment
from repro.exceptions import AlgorithmError

__all__ = ["HillClimbing", "SimulatedAnnealing"]


class _RefinementBase(DeploymentAlgorithm):
    """Starting point and search driving shared by the refinements.

    Subclasses supply ``_steps(context, current)``: the search as
    :class:`~repro.algorithms.runtime.SearchStep` items, moving
    *current* in place.
    """

    def __init__(self, seed_algorithm: DeploymentAlgorithm | None = None):
        self.seed_algorithm = seed_algorithm

    def _starting_mapping(self, context: ProblemContext) -> Deployment:
        if self.seed_algorithm is not None:
            return self.seed_algorithm.deploy(
                context.workflow,
                context.network,
                cost_model=context.cost_model,
                rng=context.rng,
            )
        return Deployment.random(context.workflow, context.network, context.rng)

    def _deploy(self, context: ProblemContext) -> Deployment:
        current = self._starting_mapping(context)
        return context.search(self._steps(context, current)).best


@register_algorithm
class HillClimbing(_RefinementBase):
    """Steepest-descent over single-operation moves.

    Parameters
    ----------
    seed_algorithm:
        Algorithm producing the starting mapping (random when omitted).
    max_iterations:
        Upper bound on improvement rounds; each round scans the full
        ``M x (N - 1)`` move neighbourhood. External budgets compose:
        a ``SearchBudget`` passed to ``deploy`` can stop the climb
        earlier still. Each round's whole neighbourhood is priced by
        one :meth:`MoveEvaluator.scan
        <repro.core.incremental.MoveEvaluator.scan>` call.
    """

    name = "HillClimbing"

    def __init__(
        self,
        seed_algorithm: DeploymentAlgorithm | None = None,
        max_iterations: int = 1_000,
    ):
        super().__init__(seed_algorithm)
        self.max_iterations = SearchBudget.validate_count(
            "max_iterations", max_iterations
        )

    def _steps(
        self, context: ProblemContext, current: Deployment
    ) -> Iterator[SearchStep]:
        evaluator = MoveEvaluator(context.cost_model, current)
        compiled = evaluator.compiled
        num_servers = compiled.num_servers
        # moves per round, excluding the no-op entries of the scan (they
        # hold the incumbent and never win the strict-improvement test)
        evals = compiled.num_ops * (num_servers - 1)
        yield SearchStep(evaluator.objective, current.copy, evals=1)
        for _ in range(self.max_iterations):
            values = evaluator.scan()
            # the first strict minimum, as a scan in op-major order finds it
            index = int(values.argmin())
            best_value = float(values[index])
            if not best_value < evaluator.objective:
                yield SearchStep(
                    evaluator.objective,
                    current.copy,
                    evals=evals,
                    rejected=evals,
                )
                break
            operation, server = divmod(index, num_servers)
            evaluator.apply(
                compiled.op_names[operation], compiled.server_names[server]
            )
            yield SearchStep(
                best_value,
                current.copy,
                evals=evals,
                accepted=1,
                rejected=evals - 1,
            )


@register_algorithm
class SimulatedAnnealing(_RefinementBase):
    """Metropolis search over single-operation moves.

    Parameters
    ----------
    seed_algorithm:
        Algorithm producing the starting mapping (random when omitted).
    initial_temperature:
        Starting temperature *relative to the starting objective value*
        (an absolute temperature would be meaningless across instances
        whose objectives differ by orders of magnitude).
    cooling:
        Geometric cooling factor per step, in ``(0, 1)``.
    steps:
        Number of proposed moves (the schedule length; an external
        ``SearchBudget`` can cut it short).
    """

    name = "SimulatedAnnealing"

    def __init__(
        self,
        seed_algorithm: DeploymentAlgorithm | None = None,
        initial_temperature: float = 0.5,
        cooling: float = 0.995,
        steps: int = 2_000,
    ):
        super().__init__(seed_algorithm)
        if initial_temperature <= 0:
            raise AlgorithmError("initial_temperature must be > 0")
        if not 0.0 < cooling < 1.0:
            raise AlgorithmError("cooling must lie strictly in (0, 1)")
        self.initial_temperature = initial_temperature
        self.cooling = cooling
        self.steps = SearchBudget.validate_count("steps", steps)

    def _steps(
        self, context: ProblemContext, current: Deployment
    ) -> Iterator[SearchStep]:
        rng = context.rng
        operations = context.workflow.operation_names
        servers = context.network.server_names
        evaluator = MoveEvaluator(context.cost_model, current)
        # hot loop: thousands of cheap steps, so the SearchStep is built
        # with positional (value, snapshot, evals, accepted, rejected),
        # the snapshot supplier is hoisted out of the loop and the
        # current objective is tracked in a local instead of re-reading
        # the evaluator property per rejected proposal
        snapshot = current.copy
        cooling = self.cooling
        current_value = evaluator.objective
        yield SearchStep(current_value, snapshot, 1)
        if len(servers) == 1:
            return  # no move neighbourhood exists
        temperature = self.initial_temperature * max(current_value, 1e-12)
        for _ in range(self.steps):
            operation = rng.choice(operations)
            original = current.server_of(operation)
            alternatives = [s for s in servers if s != original]
            server = rng.choice(alternatives)
            outcome = evaluator.propose(operation, server)
            delta = outcome.delta
            if delta <= 0 or rng.random() < math.exp(-delta / temperature):
                evaluator.commit()
                current_value = outcome.objective
                yield SearchStep(current_value, snapshot, 1, 1, 0)
            else:
                yield SearchStep(current_value, snapshot, 1, 0, 1)
            temperature *= cooling
