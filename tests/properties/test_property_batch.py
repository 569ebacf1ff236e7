"""Property tests: the batch kernel reproduces the scalar compiled path.

The determinism contract of the vectorized
:class:`~repro.core.batch.BatchEvaluator` (same shape as PRs 2-4):

* the kernel's per-row execution / loads / penalty / objective are
  pinned against ``CompiledInstance.forward_pass`` / ``load_values`` /
  ``penalty`` -- **exact** equality where the operation order matches
  (which the kernel engineers everywhere), and ``<= 1e-9`` relative as
  the outer tolerance -- across random well-formed workflows, every
  penalty mode and every graph structure;
* seeded GA / sampler runs through the batch path must return
  deployments with identical objective values, and identical RNG
  streams, as the same runs priced row by row through
  :class:`tests.oracles.ScalarBatchEvaluator`; seeded hill climbing (one
  :meth:`MoveEvaluator.scan` per round) must retrace the per-move
  ``propose_value`` climb exactly.
"""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.algorithms.genetic import GeneticAlgorithm
from repro.algorithms.local_search import HillClimbing
from repro.algorithms.sampling import SolutionSampler
from repro.core.compiled import PENALTY_MODES, CompiledInstance
from repro.core.cost import CostModel
from repro.core.mapping import Deployment
from repro.workloads.generator import (
    GraphStructure,
    line_workflow,
    random_bus_network,
    random_graph_workflow,
)
from tests.oracles import (
    FullEvaluationHillClimbing,
    per_move_hill_climbing,
    scalar_batch_pricing,
)

TOLERANCE = 1e-9

sizes = st.integers(min_value=2, max_value=18)
server_counts = st.integers(min_value=1, max_value=6)
seeds = st.integers(min_value=0, max_value=10_000)
structures = st.sampled_from([None] + list(GraphStructure))
modes = st.sampled_from(PENALTY_MODES)
batch_sizes = st.integers(min_value=0, max_value=24)


def make_workflow(size, seed, structure):
    if structure is None:
        return line_workflow(size, seed=seed)
    return random_graph_workflow(size, structure, seed=seed)


def make_compiled(size, servers, seed, structure, mode):
    workflow = make_workflow(size, seed, structure)
    network = random_bus_network(servers, seed=seed + 1)
    return CompiledInstance(workflow, network, penalty_mode=mode)


def random_rows(compiled, count, seed):
    rng = random.Random(seed)
    return [
        [rng.randrange(compiled.num_servers) for _ in range(compiled.num_ops)]
        for _ in range(count)
    ]


@given(
    size=sizes, servers=server_counts, seed=seeds,
    structure=structures, mode=modes, count=batch_sizes,
)
@settings(max_examples=60, deadline=None)
def test_kernel_matches_scalar_path(
    size, servers, seed, structure, mode, count
):
    compiled = make_compiled(size, servers, seed, structure, mode)
    batch = compiled.batch_evaluator()
    rows = random_rows(compiled, count, seed)
    scores = batch.evaluate(rows)
    assert len(scores) == count
    for k, row in enumerate(rows):
        execution = compiled.execution_from(compiled.forward_pass(row))
        penalty = compiled.penalty(compiled.load_values(row))
        objective = compiled.objective_value(execution, penalty)
        # the kernel replicates the scalar operation order, so the
        # match is exact -- the 1e-9 relative bound is the contract's
        # outer tolerance, the equality assertions the actual behaviour
        assert scores.execution[k] == execution
        assert scores.penalty[k] == penalty
        assert scores.objective[k] == objective
        assert abs(scores.objective[k] - objective) <= TOLERANCE * max(
            1.0, abs(objective)
        )


@given(
    size=sizes, servers=server_counts, seed=seeds,
    structure=structures, mode=modes,
)
@settings(max_examples=40, deadline=None)
def test_neighborhood_grid_matches_scalar_moves(
    size, servers, seed, structure, mode
):
    compiled = make_compiled(size, servers, seed, structure, mode)
    batch = compiled.batch_evaluator()
    base = random_rows(compiled, 1, seed)[0]
    scores = batch.evaluate(batch.neighborhood(base))
    for op in range(compiled.num_ops):
        for server in range(compiled.num_servers):
            row = list(base)
            row[op] = server
            expected = compiled.components(row)[2]
            assert scores.objective[op * compiled.num_servers + server] == (
                expected
            )


@given(size=sizes, servers=server_counts, seed=seeds, structure=structures)
@settings(max_examples=15, deadline=None)
def test_seeded_genetic_identical_through_batch(size, servers, seed, structure):
    workflow = make_workflow(size, seed, structure)
    network = random_bus_network(servers, seed=seed + 1)
    model = CostModel(workflow, network)
    algorithm = GeneticAlgorithm(population_size=8, generations=4)
    rng_batch = random.Random(seed)
    rng_scalar = random.Random(seed)
    batched = algorithm.deploy(
        workflow, network, cost_model=model, rng=rng_batch
    )
    with scalar_batch_pricing() as oracles:
        scalar = algorithm.deploy(
            workflow, network, cost_model=model, rng=rng_scalar
        )
    assert sum(oracle.rows for oracle in oracles) > 0
    assert batched.as_dict() == scalar.as_dict()
    assert model.objective(batched) == model.objective(scalar)
    # identical RNG streams: both paths consumed exactly the same draws
    assert rng_batch.getstate() == rng_scalar.getstate()


@given(size=sizes, servers=server_counts, seed=seeds, structure=structures)
@settings(max_examples=15, deadline=None)
def test_seeded_sampler_identical_through_batch(size, servers, seed, structure):
    workflow = make_workflow(size, seed, structure)
    network = random_bus_network(servers, seed=seed + 1)
    model = CostModel(workflow, network)
    rng_batch = random.Random(seed)
    rng_scalar = random.Random(seed)
    batched = SolutionSampler(samples=50, block=16).run(
        workflow, network, model, rng_batch
    )
    with scalar_batch_pricing() as oracles:
        scalar = SolutionSampler(samples=50, block=1).run(
            workflow, network, model, rng_scalar
        )
    assert sum(oracle.rows for oracle in oracles) == 50
    assert batched.samples == scalar.samples
    assert batched.best_execution_time == scalar.best_execution_time
    assert batched.best_time_penalty == scalar.best_time_penalty
    assert batched.worst_objective_value == scalar.worst_objective_value
    assert (
        batched.best_objective[0].as_dict()
        == scalar.best_objective[0].as_dict()
    )
    assert batched.best_objective[1].objective == (
        scalar.best_objective[1].objective
    )
    assert rng_batch.getstate() == rng_scalar.getstate()


@given(size=sizes, servers=server_counts, seed=seeds, structure=structures)
@settings(max_examples=15, deadline=None)
def test_seeded_hill_climbing_scan_matches_per_move_oracle(
    size, servers, seed, structure
):
    # MoveEvaluator.scan prices every move of a round through the kernel
    # and is the exact twin of per-move propose_value pricing, so the
    # whole trajectory must match the per-move oracle: deployment and
    # report counters. Full evaluation is only comparable on quality:
    # the evaluator's running-sum loads differ from from-scratch sums
    # by ulps, which can break a near-tie differently
    workflow = make_workflow(size, seed, structure)
    network = random_bus_network(servers, seed=seed + 1)
    model = CostModel(workflow, network)
    rng_scan = random.Random(seed)
    rng_full = random.Random(seed)
    scanned, report = HillClimbing(max_iterations=30).deploy_with_report(
        workflow, network, cost_model=model, rng=rng_scan
    )
    start = Deployment.random(workflow, network, random.Random(seed))
    expected, evaluations, accepted, rejected = per_move_hill_climbing(
        model, start, max_iterations=30
    )
    assert scanned.as_dict() == expected.as_dict()
    assert (report.evaluations, report.accepted, report.rejected) == (
        evaluations,
        accepted,
        rejected,
    )
    full = FullEvaluationHillClimbing(max_iterations=30).deploy(
        workflow, network, cost_model=model, rng=rng_full
    )
    assert rng_scan.getstate() == rng_full.getstate()
    assert model.objective(scanned) == pytest.approx(
        model.objective(full), rel=1e-3
    )
