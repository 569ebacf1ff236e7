"""Property tests: the transition-aware objective refactor is safe.

Two contracts across random instances (workflows, bus networks,
penalty modes, baselines and candidate deployments):

**Frozen oracle (weight 0).** Configuring a
:class:`~repro.core.migration.MigrationCostModel` with
``migration_weight == 0`` must be *byte-identical* to the pre-refactor
scalar -- every ``evaluate``/``objective`` float and every vectorized
batch row compares with ``==``, not a tolerance, because the migration
term is gated out before any floating-point operation happens.

**Exact parity (weight > 0).** When the objective *is*
transition-aware, :class:`~repro.core.cost.CostModel`,
:class:`~repro.core.batch.BatchEvaluator` and
:meth:`~repro.core.compiled.CompiledInstance.components` must agree
exactly on every component including the migration term;
:class:`~repro.core.incremental.MoveEvaluator` agrees to within its
documented running-sum drift and exactly on the migration term (whose
O(1) per-move delta is a table-row subtraction, re-verified here
against the from-scratch sum after every move).
"""

import random

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.batch import BatchEvaluator
from repro.core.cost import PENALTY_MODES, CostModel
from repro.core.incremental import MoveEvaluator
from repro.core.mapping import Deployment
from repro.core.migration import MigrationCostModel, TransitionObjective
from repro.workloads.generator import (
    line_workflow,
    random_bus_network,
    random_graph_workflow,
)

TOLERANCE = 1e-9

sizes = st.integers(min_value=2, max_value=12)
server_counts = st.integers(min_value=2, max_value=5)
seeds = st.integers(min_value=0, max_value=10_000)
modes = st.sampled_from(PENALTY_MODES)


def _instance(size, servers, seed):
    """A random (workflow, network, rng) triple; graphs on odd seeds."""
    rng = random.Random(seed)
    if seed % 2:
        workflow = random_graph_workflow(size, seed=rng.randrange(2**31))
    else:
        workflow = line_workflow(size, seed=rng.randrange(2**31))
    network = random_bus_network(servers, seed=rng.randrange(2**31))
    return workflow, network, rng


def _model(rng):
    return MigrationCostModel(
        state_bits_per_cycle=rng.uniform(0.0, 0.5),
        state_bits_base=rng.uniform(0.0, 1e6),
        downtime_s=rng.uniform(0.0, 0.05),
    )


@settings(max_examples=40, deadline=None)
@given(sizes, server_counts, seeds, modes)
def test_weight_zero_is_byte_identical(size, servers, seed, mode):
    """A weight-0 migration model must not change one output bit."""
    workflow, network, rng = _instance(size, servers, seed)
    baseline = Deployment.random(workflow, network, rng)
    spec = TransitionObjective(
        penalty_mode=mode,
        migration_weight=0.0,
        migration=_model(rng),
        baseline=baseline,
    )
    plain = CostModel(workflow, network, penalty_mode=mode)
    gated = CostModel(workflow, network, objective=spec)
    assert not gated.compiled.transition_aware
    assert gated.compiled.migration_table is None

    candidates = [
        Deployment.random(workflow, network, rng) for _ in range(5)
    ]
    for deployment in candidates:
        a = plain.evaluate(deployment)
        b = gated.evaluate(deployment)
        assert b.execution_time == a.execution_time
        assert b.time_penalty == a.time_penalty
        assert b.objective == a.objective
        assert b.migration_cost == 0.0
        assert plain.objective(deployment) == gated.objective(deployment)

    index = gated.compiled.server_index
    batch = [
        [index[d.server_of(name)] for name in gated.compiled.op_names]
        for d in candidates
    ]
    scores_plain = BatchEvaluator(plain.compiled).evaluate(batch)
    scores_gated = BatchEvaluator(gated.compiled).evaluate(batch)
    assert scores_gated.migration is None
    assert list(scores_gated.objective) == list(scores_plain.objective)


@settings(max_examples=40, deadline=None)
@given(sizes, server_counts, seeds, modes)
def test_transition_aware_four_way_parity(size, servers, seed, mode):
    """Every evaluator prices the same migration term, exactly."""
    workflow, network, rng = _instance(size, servers, seed)
    baseline = Deployment.random(workflow, network, rng)
    spec = TransitionObjective(
        penalty_mode=mode,
        migration_weight=rng.uniform(0.05, 2.0),
        migration=_model(rng),
        baseline=baseline,
    )
    model = CostModel(workflow, network, objective=spec)
    compiled = model.compiled
    assert compiled.transition_aware
    index = compiled.server_index

    # the baseline placement never pays a migration cost
    assert (
        compiled.migration_cost(
            [index[baseline.server_of(name)] for name in compiled.op_names]
        )
        == 0.0
    )

    candidates = [
        Deployment.random(workflow, network, rng) for _ in range(5)
    ]
    rows = []
    for deployment in candidates:
        servers_vec = [
            index[deployment.server_of(name)] for name in compiled.op_names
        ]
        rows.append(servers_vec)
        execution, penalty, objective = compiled.components(servers_vec)
        migration = compiled.migration_cost(servers_vec)

        result = model.evaluate(deployment)
        assert result.execution_time == execution
        assert result.time_penalty == penalty
        assert result.objective == objective
        assert result.migration_cost == migration
        assert model.objective(deployment) == objective

    scores = BatchEvaluator(compiled).evaluate(rows)
    for k, deployment in enumerate(candidates):
        reference = model.evaluate(deployment)
        assert scores.execution[k] == reference.execution_time
        assert scores.penalty[k] == reference.time_penalty
        assert scores.objective[k] == reference.objective
        assert scores.migration[k] == reference.migration_cost


@settings(max_examples=25, deadline=None)
@given(sizes, server_counts, seeds, modes)
def test_move_evaluator_migration_delta_is_exact(size, servers, seed, mode):
    """The O(1) migration delta equals the from-scratch table sum."""
    workflow, network, rng = _instance(size, servers, seed)
    baseline = Deployment.random(workflow, network, rng)
    spec = TransitionObjective(
        penalty_mode=mode,
        migration_weight=rng.uniform(0.05, 2.0),
        migration=_model(rng),
        baseline=baseline,
    )
    model = CostModel(workflow, network, objective=spec)
    compiled = model.compiled
    index = compiled.server_index
    deployment = Deployment(baseline.as_dict())
    evaluator = MoveEvaluator(model, deployment)
    assert evaluator.breakdown().migration_cost == 0.0

    names = list(compiled.op_names)
    server_names = network.server_names
    for _ in range(8):
        operation = rng.choice(names)
        target = rng.choice(server_names)
        outcome = evaluator.apply(operation, target)
        servers_vec = [
            index[deployment.server_of(name)] for name in compiled.op_names
        ]
        scratch = compiled.migration_cost(servers_vec)
        # migration is a plain table sum, immune to running-sum drift:
        # the incremental delta must land within one float rounding
        assert abs(outcome.migration_cost - scratch) <= TOLERANCE * max(
            1.0, scratch
        )
        reference = model.evaluate(deployment)
        assert abs(outcome.objective - reference.objective) <= (
            TOLERANCE * max(1.0, abs(reference.objective))
        )
