"""Unit tests for the transition-aware objective (hand-computed).

Fixtures: ``line3`` is ``A(10M) -[8k]-> B(20M) -[16k]-> C(30M)``;
``bus3`` has S1=1 GHz, S2=2 GHz, S3=3 GHz on a 100 Mbps bus, so any
cross-server transfer of ``b`` bits takes ``b / 100e6`` seconds.

The hand model below: 1 Mb of base state plus 0.1 bit per cycle and
10 ms of downtime per move gives per-operation move costs (from an
all-on-S1 baseline, to any other server)::

    A: state 1e6 + 0.1*10e6 = 2e6 bits -> 0.02 s + 0.01 = 0.03 s
    B: state 1e6 + 0.1*20e6 = 3e6 bits -> 0.03 s + 0.01 = 0.04 s
    C: state 1e6 + 0.1*30e6 = 4e6 bits -> 0.04 s + 0.01 = 0.05 s
"""

import dataclasses
import math

import pytest

from repro.core.compiled import CompiledInstance
from repro.core.cost import CostBreakdown, CostModel
from repro.core.incremental import MoveEvaluator
from repro.core.mapping import Deployment
from repro.core.migration import (
    PENALTY_MODES,
    MigrationCostModel,
    TransitionObjective,
)
from repro.exceptions import DeploymentError

MODEL = MigrationCostModel(
    state_bits_per_cycle=0.1, state_bits_base=1e6, downtime_s=0.01
)


@pytest.fixture
def aware_objective(line3):
    """Transition-aware spec anchored to everything-on-S1."""
    return TransitionObjective(
        migration_weight=0.5,
        migration=MODEL,
        baseline=Deployment.all_on_one(line3, "S1"),
    )


class TestMigrationCostModel:
    def test_state_bits_is_affine_in_cycles(self):
        assert MODEL.state_bits(0.0) == 1e6
        assert MODEL.state_bits(10e6) == pytest.approx(2e6)
        assert MODEL.state_bits(30e6) == pytest.approx(4e6)

    def test_defaults_are_free(self):
        model = MigrationCostModel()
        assert model.state_bits(1e9) == 0.0
        assert model.downtime_s == 0.0

    @pytest.mark.parametrize(
        "field", ["state_bits_per_cycle", "state_bits_base", "downtime_s"]
    )
    @pytest.mark.parametrize("bad", [-1.0, float("nan"), float("inf")])
    def test_rejects_bad_parameters(self, field, bad):
        with pytest.raises(DeploymentError, match=field):
            MigrationCostModel(**{field: bad})


class TestTransitionObjective:
    def test_defaults_are_the_historical_scalar(self):
        objective = TransitionObjective()
        assert not objective.transition_aware
        assert objective.value(2.0, 4.0) == 0.5 * 2.0 + 0.5 * 4.0
        # the migration argument is gated out entirely at weight 0
        assert objective.value(2.0, 4.0, 1e9) == objective.value(2.0, 4.0)

    def test_value_includes_weighted_migration_when_positive(self):
        objective = TransitionObjective(
            migration_weight=0.25, migration=MODEL
        )
        assert objective.value(2.0, 4.0, 8.0) == pytest.approx(
            0.5 * 2.0 + 0.5 * 4.0 + 0.25 * 8.0
        )

    def test_unknown_penalty_mode_rejected(self):
        with pytest.raises(DeploymentError, match="penalty mode"):
            TransitionObjective(penalty_mode="median")
        for mode in PENALTY_MODES:
            TransitionObjective(penalty_mode=mode)  # all accepted

    def test_negative_weights_rejected(self):
        with pytest.raises(DeploymentError, match=">= 0"):
            TransitionObjective(execution_weight=-0.1)
        with pytest.raises(DeploymentError, match=">= 0"):
            TransitionObjective(penalty_weight=-0.1)

    @pytest.mark.parametrize("bad", [-0.5, float("nan"), float("inf")])
    def test_bad_migration_weight_rejected(self, bad):
        with pytest.raises(DeploymentError, match="migration_weight"):
            TransitionObjective(migration_weight=bad, migration=MODEL)

    def test_positive_weight_requires_a_model(self):
        with pytest.raises(DeploymentError, match="MigrationCostModel"):
            TransitionObjective(migration_weight=0.5)

    def test_transition_aware_needs_model_weight_and_baseline(self, line3):
        baseline = Deployment.all_on_one(line3, "S1")
        assert not TransitionObjective(
            migration_weight=0.5, migration=MODEL
        ).transition_aware  # no baseline
        assert not TransitionObjective(
            migration=MODEL, baseline=baseline
        ).transition_aware  # weight 0
        assert TransitionObjective(
            migration_weight=0.5, migration=MODEL, baseline=baseline
        ).transition_aware

    def test_baseline_deployment_is_frozen_on_construction(self, line3):
        mutable = Deployment.all_on_one(line3, "S1")
        objective = TransitionObjective(migration=MODEL, baseline=mutable)
        frozen = objective.baseline
        mutable.assign("A", "S2")  # must not leak into the spec
        assert frozen.as_dict()["A"] == "S1"

    def test_with_baseline_reanchors(self, line3, aware_objective):
        moved = dataclasses.replace(
            aware_objective, baseline=Deployment.all_on_one(line3, "S2")
        )
        assert moved.baseline.as_dict() == {n: "S2" for n in "ABC"}
        # the original spec is untouched (frozen dataclass semantics)
        assert aware_objective.baseline.as_dict() == {n: "S1" for n in "ABC"}


class TestCompiledMigrationTables:
    def test_non_aware_instance_has_no_tables(self, line3, bus3):
        compiled = CompiledInstance(line3, bus3)
        assert not compiled.transition_aware
        assert compiled.baseline_servers is None
        assert compiled.migration_table is None
        assert compiled.migration_cost([0, 1, 2]) == 0.0

    def test_table_prices_each_op_against_its_baseline(
        self, line3, bus3, aware_objective
    ):
        compiled = CompiledInstance(line3, bus3, objective=aware_objective)
        assert compiled.transition_aware
        s1 = compiled.server_index["S1"]
        assert compiled.baseline_servers == (s1, s1, s1)
        table = compiled.migration_table
        for op, cost in zip("ABC", (0.03, 0.04, 0.05)):
            row = table[compiled.op_index[op]]
            assert row[s1] == 0.0  # staying home is free
            for server in range(len(row)):
                if server != s1:
                    assert row[server] == pytest.approx(cost)

    def test_migration_cost_sums_moved_operations(
        self, line3, bus3, aware_objective
    ):
        compiled = CompiledInstance(line3, bus3, objective=aware_objective)
        index = compiled.server_index
        # A stays, B -> S2, C -> S3: 0 + 0.04 + 0.05
        servers = [index["S1"], index["S2"], index["S3"]]
        assert compiled.migration_cost(servers) == pytest.approx(0.09)
        # the baseline itself never pays
        assert compiled.migration_cost([index["S1"]] * 3) == 0.0

    def test_objective_value_gates_the_migration_term(
        self, line3, bus3, aware_objective
    ):
        aware = CompiledInstance(line3, bus3, objective=aware_objective)
        plain = CompiledInstance(line3, bus3)
        assert aware.objective_value(2.0, 4.0, 0.09) == pytest.approx(
            0.5 * 2.0 + 0.5 * 4.0 + 0.5 * 0.09
        )
        # non-aware instances ignore the third argument entirely
        assert plain.objective_value(2.0, 4.0, 0.09) == plain.objective_value(
            2.0, 4.0
        )


class TestEvaluatorsCarryMigration:
    def test_breakdown_field_defaults_to_zero(self):
        breakdown = CostBreakdown(
            execution_time=1.0, time_penalty=0.0, objective=0.5
        )
        assert breakdown.migration_cost == 0.0

    def test_cost_model_evaluate_prices_the_transition(
        self, line3, bus3, aware_objective
    ):
        aware = CostModel(line3, bus3, objective=aware_objective)
        plain = CostModel(line3, bus3)
        deployment = Deployment({"A": "S1", "B": "S2", "C": "S3"})
        result = aware.evaluate(deployment)
        assert result.migration_cost == pytest.approx(0.09)
        assert result.objective == pytest.approx(
            plain.objective(deployment) + 0.5 * 0.09
        )
        assert plain.evaluate(deployment).migration_cost == 0.0

    def test_move_evaluator_prices_moves_incrementally(
        self, line3, bus3, aware_objective
    ):
        model = CostModel(line3, bus3, objective=aware_objective)
        evaluator = MoveEvaluator(
            model, Deployment.all_on_one(line3, "S1")
        )
        assert evaluator.breakdown().migration_cost == 0.0
        outcome = evaluator.propose("C", "S3")
        assert outcome.migration_cost == pytest.approx(0.05)
        assert outcome.objective == pytest.approx(
            model.evaluate(
                Deployment({"A": "S1", "B": "S1", "C": "S3"})
            ).objective
        )
        evaluator.commit()
        # moving back home refunds the whole term
        refund = evaluator.apply("C", "S1")
        assert refund.migration_cost == 0.0
        assert math.isclose(
            refund.objective,
            model.objective(Deployment.all_on_one(line3, "S1")),
            rel_tol=1e-12,
        )

    def test_table_scorer_matches_evaluate(
        self, line3, bus3, aware_objective
    ):
        # full-mapping pricing (the removed TableScorer's role) carries
        # the migration term exactly like the cost model
        model = CostModel(line3, bus3, objective=aware_objective)
        compiled = model.compiled
        genome = ["S1", "S2", "S3"]
        execution, penalty, objective = compiled.components(
            [compiled.server_index[name] for name in genome]
        )
        reference = model.evaluate(
            Deployment(dict(zip(compiled.op_names, genome)))
        )
        assert execution == reference.execution_time
        assert penalty == reference.time_penalty
        assert objective == reference.objective


class TestScopedInvalidationReprices:
    def test_sized_pair_migration_rows_reprice(self, pareto_triple):
        # regression: moving op1 from baseline A to B ships 5e6 bits of
        # state over the z route -- on neither classification path of
        # the size-dependent (A, B) pair -- so a scoped invalidation of
        # an A-z worsening must re-price that migration row rather than
        # keep the pre-event (now too optimistic) move cost
        from repro.core.workflow import Operation, Workflow
        from repro.network.topology import Link

        workflow = Workflow("pair")
        workflow.add_operations(
            [Operation("op1", 1e9), Operation("op2", 1e9)]
        )
        workflow.connect("op1", "op2", 8_000)
        objective = TransitionObjective(
            migration_weight=0.5,
            migration=MigrationCostModel(state_bits_base=5e6),
            baseline=Deployment.all_on_one(workflow, "A"),
        )
        compiled = CompiledInstance(
            workflow, pareto_triple, objective=objective
        )
        before = compiled.migration_table[0][4]  # op1: A -> B
        assert before == pytest.approx(6.5)  # state rides z
        pareto_triple.replace_link(Link("A", "z", 1e3, 50.0))
        compiled.invalidate_routes()
        fresh = CompiledInstance(
            workflow, pareto_triple, objective=objective
        )
        assert compiled.migration_table == fresh.migration_table
        assert compiled.migration_table[0][4] == pytest.approx(10.01)
