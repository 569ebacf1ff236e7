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
full ``CostModel.objective()`` per candidate. ``use_incremental=False``
selects that full-evaluation path, kept as the exact reference. The
evaluator derives a move's two server loads from running sums, which
can differ from a from-scratch sum by ulps, so the two paths agree on
solution quality but may break a near-tie differently (the regression
tests pin fixtures where they return the same deployment, and the
benchmarks measure the speedup between them).

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
    """Shared starting-point handling for the refinement algorithms."""

    def __init__(
        self,
        seed_algorithm: DeploymentAlgorithm | None = None,
        use_incremental: bool = True,
    ):
        self.seed_algorithm = seed_algorithm
        self.use_incremental = use_incremental

    def _starting_mapping(self, context: ProblemContext) -> Deployment:
        if self.seed_algorithm is not None:
            return self.seed_algorithm.deploy(
                context.workflow,
                context.network,
                cost_model=context.cost_model,
                rng=context.rng,
            )
        return Deployment.random(context.workflow, context.network, context.rng)


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
        earlier still.
    use_incremental:
        Price each round's whole neighbourhood with one
        :meth:`MoveEvaluator.scan <repro.core.incremental.MoveEvaluator.scan>`
        call (default) or with one full ``CostModel.objective()`` per
        candidate -- the exact reference path.
    """

    name = "HillClimbing"

    def __init__(
        self,
        seed_algorithm: DeploymentAlgorithm | None = None,
        max_iterations: int = 1_000,
        use_incremental: bool = True,
    ):
        super().__init__(seed_algorithm, use_incremental)
        self.max_iterations = SearchBudget.validate_count(
            "max_iterations", max_iterations
        )

    def _deploy(self, context: ProblemContext) -> Deployment:
        current = self._starting_mapping(context)
        if self.use_incremental:
            steps = self._steps_incremental(context, current)
        else:
            steps = self._steps_full(context, current)
        return context.search(steps).best

    def _steps_incremental(
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

    def _steps_full(
        self, context: ProblemContext, current: Deployment
    ) -> Iterator[SearchStep]:
        cost_model = context.cost_model
        current_value = cost_model.objective(current)
        yield SearchStep(current_value, current.copy, evals=1)
        for _ in range(self.max_iterations):
            best_move: tuple[str, str] | None = None
            best_value = current_value
            evals = 0
            for operation in context.workflow.operation_names:
                original = current.server_of(operation)
                for server in context.network.server_names:
                    if server == original:
                        continue
                    current.assign(operation, server)
                    value = cost_model.objective(current)
                    evals += 1
                    if value < best_value:
                        best_value = value
                        best_move = (operation, server)
                current.assign(operation, original)
            if best_move is None:
                yield SearchStep(
                    best_value, current.copy, evals=evals, rejected=evals
                )
                break
            current.assign(*best_move)
            current_value = best_value
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
    use_incremental:
        Price moves with the incremental
        :class:`~repro.core.incremental.MoveEvaluator` (default) or fall
        back to one full ``CostModel.objective()`` per proposal.
    """

    name = "SimulatedAnnealing"

    def __init__(
        self,
        seed_algorithm: DeploymentAlgorithm | None = None,
        initial_temperature: float = 0.5,
        cooling: float = 0.995,
        steps: int = 2_000,
        use_incremental: bool = True,
    ):
        super().__init__(seed_algorithm, use_incremental)
        if initial_temperature <= 0:
            raise AlgorithmError("initial_temperature must be > 0")
        if not 0.0 < cooling < 1.0:
            raise AlgorithmError("cooling must lie strictly in (0, 1)")
        self.initial_temperature = initial_temperature
        self.cooling = cooling
        self.steps = SearchBudget.validate_count("steps", steps)

    def _deploy(self, context: ProblemContext) -> Deployment:
        current = self._starting_mapping(context)
        if self.use_incremental:
            steps = self._steps_incremental(context, current)
        else:
            steps = self._steps_full(context, current)
        return context.search(steps).best

    def _steps_incremental(
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

    def _steps_full(
        self, context: ProblemContext, current: Deployment
    ) -> Iterator[SearchStep]:
        cost_model = context.cost_model
        rng = context.rng
        operations = context.workflow.operation_names
        servers = context.network.server_names
        current_value = cost_model.objective(current)
        snapshot = current.copy
        yield SearchStep(current_value, snapshot, 1)
        if len(servers) == 1:
            return  # no move neighbourhood exists
        temperature = self.initial_temperature * max(current_value, 1e-12)
        for _ in range(self.steps):
            operation = rng.choice(operations)
            original = current.server_of(operation)
            alternatives = [s for s in servers if s != original]
            server = rng.choice(alternatives)
            current.assign(operation, server)
            value = cost_model.objective(current)
            delta = value - current_value
            if delta <= 0 or rng.random() < math.exp(-delta / temperature):
                current_value = value
                yield SearchStep(value, snapshot, 1, 1, 0)
            else:
                current.assign(operation, original)
                yield SearchStep(current_value, snapshot, 1, 0, 1)
            temperature *= self.cooling
