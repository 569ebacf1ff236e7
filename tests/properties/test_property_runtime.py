"""Property tests: the search runtime preserved every algorithm's output.

Two families of guarantees:

* **frozen oracle** -- the pre-runtime implementations of hill
  climbing, simulated annealing, exhaustive enumeration and the
  solution sampler are embedded here *verbatim* (modulo being free
  functions); over random seeded instances the runtime-driven
  algorithms must return byte-identical deployments and statistics
  whenever the budget is non-binding. This pins the refactor: the
  runtime owns the loop, but no published experiment may move.
* **anytime contract** -- under *binding* budgets (evaluation caps,
  step caps, deterministic deadlines) every search still returns a
  valid complete deployment whose objective equals the report's
  incumbent value, the report names the binding limit, and the
  best-so-far curve is monotonically non-increasing.
"""

import math
import random

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.algorithms.exhaustive import Exhaustive
from repro.algorithms.genetic import GeneticAlgorithm
from repro.algorithms.local_search import HillClimbing, SimulatedAnnealing
from repro.algorithms.runtime import (
    STOP_DEADLINE,
    STOP_EXHAUSTED,
    STOP_MAX_EVALS,
    STOP_MAX_STEPS,
    SearchBudget,
)
from repro.algorithms.sampling import SolutionSampler
from repro.core.clock import StepClock
from repro.core.cost import CostModel
from repro.core.incremental import MoveEvaluator
from repro.core.mapping import Deployment
from repro.workloads.generator import (
    GraphStructure,
    line_workflow,
    random_bus_network,
    random_graph_workflow,
)

TOLERANCE = 1e-9

sizes = st.integers(min_value=2, max_value=14)
server_counts = st.integers(min_value=2, max_value=5)
seeds = st.integers(min_value=0, max_value=10_000)
structures = st.sampled_from([None] + list(GraphStructure))


def instance(size, servers, seed, structure):
    if structure is None:
        workflow = line_workflow(size, seed=seed)
    else:
        workflow = random_graph_workflow(size, structure, seed=seed)
    network = random_bus_network(servers, seed=seed + 1)
    return workflow, network, CostModel(workflow, network)


# ----------------------------------------------------------------------
# frozen oracles: the pre-runtime loops, verbatim
# ----------------------------------------------------------------------
def oracle_hill_climbing(workflow, network, model, rng, max_iterations):
    """HillClimbing._deploy_full as it was before the runtime refactor."""
    current = Deployment.random(workflow, network, rng)
    current_value = model.objective(current)
    for _ in range(max_iterations):
        best_move = None
        best_value = current_value
        for operation in workflow.operation_names:
            original = current.server_of(operation)
            for server in network.server_names:
                if server == original:
                    continue
                current.assign(operation, server)
                value = model.objective(current)
                if value < best_value:
                    best_value = value
                    best_move = (operation, server)
            current.assign(operation, original)
        if best_move is None:
            break
        current.assign(*best_move)
        current_value = best_value
    return current


def oracle_hill_climbing_incremental(
    workflow, network, model, rng, max_iterations
):
    """HillClimbing._deploy_incremental as it was before the refactor.

    Kept separate from the full-evaluation oracle: incremental deltas
    differ from full re-evaluations in the last ulp, so the two paths
    legitimately take different trajectories on some instances.
    """
    current = Deployment.random(workflow, network, rng)
    evaluator = MoveEvaluator(model, current)
    for _ in range(max_iterations):
        best_move = None
        best_value = evaluator.objective
        for operation in workflow.operation_names:
            original = current.server_of(operation)
            for server in network.server_names:
                if server == original:
                    continue
                value = evaluator.propose_value(operation, server)
                if value < best_value:
                    best_value = value
                    best_move = (operation, server)
        if best_move is None:
            break
        evaluator.apply(*best_move)
    return current


def oracle_simulated_annealing(
    workflow, network, model, rng, initial_temperature, cooling, steps
):
    """SimulatedAnnealing._deploy_full as it was before the refactor."""
    current = Deployment.random(workflow, network, rng)
    operations = workflow.operation_names
    servers = network.server_names
    current_value = model.objective(current)
    best = current.copy()
    best_value = current_value
    if len(servers) == 1:
        return best
    temperature = initial_temperature * max(current_value, 1e-12)
    for _ in range(steps):
        operation = rng.choice(operations)
        original = current.server_of(operation)
        alternatives = [s for s in servers if s != original]
        server = rng.choice(alternatives)
        current.assign(operation, server)
        value = model.objective(current)
        delta = value - current_value
        if delta <= 0 or rng.random() < math.exp(-delta / temperature):
            current_value = value
            if value < best_value:
                best_value = value
                best = current.copy()
        else:
            current.assign(operation, original)
        temperature *= cooling
    return best


def oracle_simulated_annealing_incremental(
    workflow, network, model, rng, initial_temperature, cooling, steps
):
    """SimulatedAnnealing._deploy_incremental as it was before."""
    current = Deployment.random(workflow, network, rng)
    operations = workflow.operation_names
    servers = network.server_names
    evaluator = MoveEvaluator(model, current)
    best = current.copy()
    best_value = evaluator.objective
    if len(servers) == 1:
        return best
    temperature = initial_temperature * max(evaluator.objective, 1e-12)
    for _ in range(steps):
        operation = rng.choice(operations)
        original = current.server_of(operation)
        alternatives = [s for s in servers if s != original]
        server = rng.choice(alternatives)
        outcome = evaluator.propose(operation, server)
        delta = outcome.delta
        if delta <= 0 or rng.random() < math.exp(-delta / temperature):
            evaluator.commit()
            if outcome.objective < best_value:
                best_value = outcome.objective
                best = current.copy()
        temperature *= cooling
    return best


def oracle_exhaustive_best(workflow, network, model):
    """Exhaustive._deploy as it was: min() over the full enumeration."""
    return min(
        Exhaustive().enumerate(workflow, network, model),
        key=lambda em: em.cost.objective,
    ).deployment


def oracle_sampler(workflow, network, model, rng, samples):
    """SolutionSampler.run as it was before the refactor."""
    operations = workflow.operation_names
    servers = network.server_names
    compiled = model.compiled
    best_genome = None
    best_objective = float("inf")
    best_execution = float("inf")
    best_penalty = float("inf")
    worst_objective = float("-inf")
    for _ in range(samples):
        genome = tuple(rng.choice(servers) for _ in operations)
        execution, penalty, objective = compiled.components(
            [compiled.server_index[name] for name in genome]
        )
        if best_genome is None or objective < best_objective:
            best_genome = genome
            best_objective = objective
        best_execution = min(best_execution, execution)
        best_penalty = min(best_penalty, penalty)
        worst_objective = max(worst_objective, objective)
    best_deployment = Deployment(dict(zip(operations, best_genome)))
    return best_deployment, best_execution, best_penalty, worst_objective


# ----------------------------------------------------------------------
# byte-identity with non-binding budgets
# ----------------------------------------------------------------------
@given(size=sizes, servers=server_counts, seed=seeds, structure=structures)
@settings(max_examples=25, deadline=None)
def test_hill_climbing_matches_frozen_oracle(size, servers, seed, structure):
    workflow, network, model = instance(size, servers, seed, structure)
    oracles = {
        False: oracle_hill_climbing,
        True: oracle_hill_climbing_incremental,
    }
    for use_incremental, oracle in oracles.items():
        expected = oracle(
            workflow, network, model, random.Random(seed), max_iterations=50
        )
        algorithm = HillClimbing(
            max_iterations=50, use_incremental=use_incremental
        )
        deployment, report = algorithm.deploy_with_report(
            workflow, network, cost_model=model, rng=random.Random(seed)
        )
        assert deployment.as_dict() == expected.as_dict()
        assert report is not None and report.exhausted


@given(size=sizes, servers=server_counts, seed=seeds, structure=structures)
@settings(max_examples=25, deadline=None)
def test_annealing_matches_frozen_oracle(size, servers, seed, structure):
    workflow, network, model = instance(size, servers, seed, structure)
    oracles = {
        False: oracle_simulated_annealing,
        True: oracle_simulated_annealing_incremental,
    }
    for use_incremental, oracle in oracles.items():
        expected = oracle(
            workflow,
            network,
            model,
            random.Random(seed),
            initial_temperature=0.5,
            cooling=0.99,
            steps=120,
        )
        algorithm = SimulatedAnnealing(
            cooling=0.99, steps=120, use_incremental=use_incremental
        )
        deployment, report = algorithm.deploy_with_report(
            workflow, network, cost_model=model, rng=random.Random(seed)
        )
        assert deployment.as_dict() == expected.as_dict()
        assert report is not None and report.exhausted


@given(
    size=st.integers(min_value=2, max_value=6),
    servers=st.integers(min_value=2, max_value=3),
    seed=seeds,
)
@settings(max_examples=15, deadline=None)
def test_exhaustive_matches_frozen_oracle(size, servers, seed):
    workflow, network, model = instance(size, servers, seed, None)
    expected = oracle_exhaustive_best(workflow, network, model)
    deployment, report = Exhaustive().deploy_with_report(
        workflow, network, cost_model=model, rng=random.Random(seed)
    )
    assert deployment.as_dict() == expected.as_dict()
    assert report is not None
    assert report.steps == len(network) ** len(workflow)


@given(size=sizes, servers=server_counts, seed=seeds, structure=structures)
@settings(max_examples=20, deadline=None)
def test_sampler_matches_frozen_oracle(size, servers, seed, structure):
    workflow, network, model = instance(size, servers, seed, structure)
    expected_best, execution, penalty, worst = oracle_sampler(
        workflow, network, model, random.Random(seed), samples=200
    )
    statistics = SolutionSampler(samples=200).run(
        workflow, network, model, random.Random(seed)
    )
    assert statistics.best_objective[0].as_dict() == expected_best.as_dict()
    assert statistics.samples == 200
    assert abs(statistics.best_execution_time - execution) <= TOLERANCE
    assert abs(statistics.best_time_penalty - penalty) <= TOLERANCE
    assert abs(statistics.worst_objective_value - worst) <= TOLERANCE
    assert statistics.report is not None and statistics.report.exhausted


# ----------------------------------------------------------------------
# the anytime contract under binding budgets
# ----------------------------------------------------------------------
def assert_curve_monotone(report):
    values = [value for _, value in report.curve]
    assert values, "curve must contain at least the starting state"
    assert all(b < a for a, b in zip(values, values[1:])), (
        "curve must be strictly improving at every stamp"
    )
    assert values[-1] == report.best_value


ANYTIME_ALGORITHMS = [
    lambda: HillClimbing(max_iterations=50),
    lambda: HillClimbing(max_iterations=50, use_incremental=False),
    lambda: SimulatedAnnealing(steps=150),
    lambda: GeneticAlgorithm(population_size=8, generations=10),
]


@given(
    size=sizes,
    servers=server_counts,
    seed=seeds,
    structure=structures,
    max_evals=st.integers(min_value=1, max_value=40),
    algorithm_index=st.integers(
        min_value=0, max_value=len(ANYTIME_ALGORITHMS) - 1
    ),
)
@settings(max_examples=40, deadline=None)
def test_binding_eval_budget_returns_valid_incumbent(
    size, servers, seed, structure, max_evals, algorithm_index
):
    workflow, network, model = instance(size, servers, seed, structure)
    algorithm = ANYTIME_ALGORITHMS[algorithm_index]()
    deployment, report = algorithm.deploy_with_report(
        workflow,
        network,
        cost_model=model,
        rng=random.Random(seed),
        budget=SearchBudget(max_evals=max_evals),
    )
    # the incumbent is always a valid, complete deployment
    assert deployment.is_complete(workflow)
    assert report is not None
    assert report.stop_reason in (STOP_MAX_EVALS, STOP_EXHAUSTED)
    assert report.evaluations >= 1
    assert_curve_monotone(report)
    # the reported incumbent value is the deployment's actual objective
    assert (
        abs(model.evaluate(deployment).objective - report.best_value)
        <= TOLERANCE
    )


@given(
    size=sizes,
    servers=server_counts,
    seed=seeds,
    max_steps=st.integers(min_value=1, max_value=10),
)
@settings(max_examples=20, deadline=None)
def test_binding_step_budget(size, servers, seed, max_steps):
    workflow, network, model = instance(size, servers, seed, None)
    deployment, report = SimulatedAnnealing(steps=200).deploy_with_report(
        workflow,
        network,
        cost_model=model,
        rng=random.Random(seed),
        budget=SearchBudget(max_steps=max_steps),
    )
    assert deployment.is_complete(workflow)
    assert report.stop_reason == STOP_MAX_STEPS
    assert report.steps == max_steps
    assert_curve_monotone(report)


@given(size=sizes, servers=server_counts, seed=seeds)
@settings(max_examples=20, deadline=None)
def test_deterministic_deadline_mid_search(size, servers, seed):
    """A deadline firing mid-search still yields a complete incumbent."""
    workflow, network, model = instance(size, servers, seed, None)
    # StepClock advances 1 ms per reading; with a 5 ms deadline the run
    # is cut after a handful of steps, deterministically
    deployment, report = SimulatedAnnealing(steps=500).deploy_with_report(
        workflow,
        network,
        cost_model=model,
        rng=random.Random(seed),
        budget=SearchBudget(deadline_s=0.005),
        clock=StepClock(step_s=0.001),
    )
    assert deployment.is_complete(workflow)
    assert report.stop_reason == STOP_DEADLINE
    assert report.steps < 500
    assert_curve_monotone(report)
    assert (
        abs(model.evaluate(deployment).objective - report.best_value)
        <= TOLERANCE
    )


@given(size=sizes, servers=server_counts, seed=seeds, structure=structures)
@settings(max_examples=20, deadline=None)
def test_unbudgeted_curves_monotone(size, servers, seed, structure):
    workflow, network, model = instance(size, servers, seed, structure)
    for make in ANYTIME_ALGORITHMS:
        _, report = make().deploy_with_report(
            workflow, network, cost_model=model, rng=random.Random(seed)
        )
        assert report.exhausted
        assert_curve_monotone(report)
