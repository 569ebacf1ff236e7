"""Property tests: the incremental engine tracks the full cost model.

Two guarantees are exercised here:

* **equivalence** -- over random instances (line and graph structure,
  XOR probabilities, every fairness statistic) and random move
  sequences, :class:`MoveEvaluator` and full-mapping
  ``CompiledInstance.components`` pricing agree with
  ``CostModel.evaluate`` to within ``1e-9``, and every resync lands on
  a fresh evaluator's loads, migration term and scalars bit for bit;
* **regression** -- the seeded local-search algorithms return the exact
  same deployment as their full-evaluation oracles
  (:class:`tests.oracles.FullEvaluationHillClimbing`,
  :class:`tests.oracles.FullEvaluationAnnealing`), so the incremental
  pricing cannot have changed any published experiment;
* **scan twin** -- every entry of :meth:`MoveEvaluator.scan` equals the
  matching :meth:`MoveEvaluator.propose_value` bit for bit, along random
  commit walks with frequent resyncs.
"""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.algorithms.local_search import HillClimbing, SimulatedAnnealing
from repro.core.cost import PENALTY_MODES, CostModel
from repro.core.incremental import DEFAULT_RESYNC_INTERVAL, MoveEvaluator
from repro.core.mapping import Deployment
from repro.core.migration import MigrationCostModel, TransitionObjective
from repro.workloads.generator import (
    GraphStructure,
    line_workflow,
    random_bus_network,
    random_graph_workflow,
)
from tests.oracles import FullEvaluationAnnealing, FullEvaluationHillClimbing

TOLERANCE = 1e-9

sizes = st.integers(min_value=2, max_value=18)
server_counts = st.integers(min_value=1, max_value=6)
seeds = st.integers(min_value=0, max_value=10_000)
structures = st.sampled_from([None] + list(GraphStructure))
modes = st.sampled_from(PENALTY_MODES)


def instance(size, servers, seed, structure, mode):
    if structure is None:
        workflow = line_workflow(size, seed=seed)
    else:
        # graph structures introduce decision nodes, including XOR splits
        # whose branch probabilities weight the cost model
        workflow = random_graph_workflow(size, structure, seed=seed)
    network = random_bus_network(servers, seed=seed + 1)
    model = CostModel(workflow, network, penalty_mode=mode)
    deployment = Deployment.random(workflow, network, random.Random(seed))
    return workflow, network, model, deployment


def transition_aware(workflow, network, mode, seed):
    """A cost model with a random migration term and baseline."""
    rng = random.Random(seed + 6)
    return CostModel(
        workflow,
        network,
        objective=TransitionObjective(
            penalty_mode=mode,
            migration_weight=rng.uniform(0.0, 2.0),
            migration=MigrationCostModel(
                state_bits_per_cycle=rng.uniform(0.0, 0.5),
                state_bits_base=rng.uniform(0.0, 1e6),
                downtime_s=rng.uniform(0.0, 0.05),
            ),
            baseline=Deployment.random(workflow, network, rng),
        ),
    )


def assert_in_sync(evaluator, model, deployment):
    full = model.evaluate(deployment)
    assert abs(evaluator.objective - full.objective) <= TOLERANCE
    assert abs(evaluator.execution_time - full.execution_time) <= TOLERANCE
    assert abs(evaluator.time_penalty - full.time_penalty) <= TOLERANCE


def assert_equals_fresh(evaluator, model, deployment):
    """A resynced evaluator's state is a fresh evaluator's, bit for bit."""
    fresh = MoveEvaluator(model, deployment.copy())
    assert [v.hex() for v in evaluator._loads_list] == [
        v.hex() for v in fresh._loads_list
    ]
    assert evaluator.migration_cost.hex() == fresh.migration_cost.hex()
    assert evaluator.objective.hex() == fresh.objective.hex()
    assert evaluator.execution_time.hex() == fresh.execution_time.hex()
    assert evaluator.time_penalty.hex() == fresh.time_penalty.hex()


@given(
    size=sizes,
    servers=server_counts,
    seed=seeds,
    structure=structures,
    mode=modes,
    aware=st.booleans(),
    interval=st.sampled_from([3, DEFAULT_RESYNC_INTERVAL]),
)
@settings(max_examples=60, deadline=None)
def test_move_evaluator_tracks_cost_model(
    size, servers, seed, structure, mode, aware, interval
):
    workflow, network, model, deployment = instance(
        size, servers, seed, structure, mode
    )
    if aware:
        model = transition_aware(workflow, network, mode, seed)
    # the default interval checks a long run of unresynced commits; the
    # short one resyncs often, and each resync must land exactly on a
    # fresh state
    evaluator = MoveEvaluator(model, deployment, resync_interval=interval)
    assert_in_sync(evaluator, model, deployment)
    assert_equals_fresh(evaluator, model, deployment)
    rng = random.Random(seed + 2)
    operations = workflow.operation_names
    servers_list = network.server_names
    for _ in range(15):
        operation = rng.choice(operations)
        server = rng.choice(servers_list)
        outcome = evaluator.propose(operation, server)
        # the priced move equals a from-scratch evaluation of the move
        trial = deployment.copy()
        trial.assign(operation, server)
        trial_cost = model.evaluate(trial)
        assert abs(outcome.objective - trial_cost.objective) <= TOLERANCE
        assert (
            abs(outcome.execution_time - trial_cost.execution_time)
            <= TOLERANCE
        )
        assert abs(outcome.time_penalty - trial_cost.time_penalty) <= TOLERANCE
        # commit roughly half the proposals and re-check the running state
        if rng.random() < 0.5 and server != outcome.previous_server:
            evaluator.commit()
            assert_in_sync(evaluator, model, deployment)
            if evaluator._commits_since_resync == 0:  # this commit resynced
                assert_equals_fresh(evaluator, model, deployment)
    evaluator.resync()
    assert_equals_fresh(evaluator, model, deployment)


@given(
    size=sizes,
    servers=server_counts,
    seed=seeds,
    structure=structures,
    mode=modes,
)
@settings(max_examples=60, deadline=None)
def test_table_scorer_tracks_cost_model(size, servers, seed, structure, mode):
    # full-mapping pricing, the role of the removed TableScorer
    workflow, network, model, _ = instance(size, servers, seed, structure, mode)
    compiled = model.compiled
    rng = random.Random(seed + 3)
    servers_list = network.server_names
    for _ in range(5):
        genome = tuple(rng.choice(servers_list) for _ in compiled.op_names)
        execution, penalty, objective = compiled.components(
            [compiled.server_index[name] for name in genome]
        )
        full = model.evaluate(
            Deployment(dict(zip(compiled.op_names, genome)))
        )
        assert abs(execution - full.execution_time) <= TOLERANCE
        assert abs(penalty - full.time_penalty) <= TOLERANCE
        assert abs(objective - full.objective) <= TOLERANCE


@given(size=sizes, servers=server_counts, seed=seeds, mode=modes)
@settings(max_examples=40, deadline=None)
def test_frequent_resync_changes_nothing(size, servers, seed, mode):
    # resyncing after every commit must be observationally identical to
    # the default interval -- it only re-derives the same state
    workflow, network, model, deployment = instance(
        size, servers, seed, None, mode
    )
    evaluator = MoveEvaluator(model, deployment, resync_interval=1)
    rng = random.Random(seed + 4)
    for _ in range(10):
        evaluator.apply(
            rng.choice(workflow.operation_names),
            rng.choice(network.server_names),
        )
    assert_in_sync(evaluator, model, deployment)


@pytest.mark.parametrize("seed", range(6))
@pytest.mark.parametrize("structure", [None, GraphStructure.HYBRID])
def test_hill_climbing_unchanged_by_incremental_pricing(seed, structure):
    if structure is None:
        workflow = line_workflow(9, seed=seed)
    else:
        workflow = random_graph_workflow(12, structure, seed=seed)
    network = random_bus_network(4, seed=seed + 50)
    model = CostModel(workflow, network)
    results = [
        algorithm.deploy(
            workflow, network, cost_model=model, rng=random.Random(seed)
        ).as_dict()
        for algorithm in (HillClimbing(), FullEvaluationHillClimbing())
    ]
    assert results[0] == results[1]


@pytest.mark.parametrize("seed", range(6))
@pytest.mark.parametrize("structure", [None, GraphStructure.BUSHY])
def test_simulated_annealing_unchanged_by_incremental_pricing(seed, structure):
    if structure is None:
        workflow = line_workflow(9, seed=seed)
    else:
        workflow = random_graph_workflow(12, structure, seed=seed)
    network = random_bus_network(4, seed=seed + 70)
    model = CostModel(workflow, network)
    results = [
        algorithm.deploy(
            workflow, network, cost_model=model, rng=random.Random(seed)
        ).as_dict()
        for algorithm in (
            SimulatedAnnealing(steps=400),
            FullEvaluationAnnealing(steps=400),
        )
    ]
    assert results[0] == results[1]


@given(
    size=sizes,
    servers=server_counts,
    seed=seeds,
    structure=st.sampled_from(
        [None, GraphStructure.BUSHY, GraphStructure.HYBRID]
    ),
    mode=modes,
    aware=st.booleans(),
)
@settings(max_examples=60, deadline=None)
def test_scan_equals_propose_value(size, servers, seed, structure, mode, aware):
    workflow, network, model, deployment = instance(
        size, servers, seed, structure, mode
    )
    if aware:
        model = transition_aware(workflow, network, mode, seed)
    evaluator = MoveEvaluator(model, deployment, resync_interval=3)
    rng = random.Random(seed + 5)
    for _ in range(8):
        values = evaluator.scan().tolist()
        expected = [
            evaluator.propose_value(operation, server)
            for operation in workflow.operation_names
            for server in network.server_names
        ]
        assert values == expected
        evaluator.apply(
            rng.choice(workflow.operation_names),
            rng.choice(network.server_names),
        )


def test_scan_is_not_full_evaluation():
    # the scan prices a move's two server loads from the running sums,
    # as propose_value does; from-scratch sums (the batch kernel, the
    # cost model) differ by ulps, so the twins can only be told apart
    # on an instance like this one, where they disagree
    workflow, network, model, deployment = instance(
        12, 4, 7, GraphStructure.HYBRID, "mad"
    )
    evaluator = MoveEvaluator(model, deployment, resync_interval=3)
    batch = model.compiled.batch_evaluator()
    full = batch.evaluate(
        batch.neighborhood(model.compiled.server_vector(deployment))
    ).objective
    values = evaluator.scan()
    assert (values != full).any()
    assert values.tolist() == [
        evaluator.propose_value(operation, server)
        for operation in workflow.operation_names
        for server in network.server_names
    ]
