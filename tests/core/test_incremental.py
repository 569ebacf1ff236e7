"""Unit tests for the incremental move-evaluation engine."""

import random

import pytest

from repro.core import incremental
from repro.core.cost import PENALTY_MODES, CostModel
from repro.core.incremental import MoveEvaluator
from repro.core.mapping import Deployment
from repro.core.migration import MigrationCostModel, TransitionObjective
from repro.exceptions import DeploymentError
from repro.workloads.generator import (
    GraphStructure,
    line_workflow,
    random_bus_network,
    random_graph_workflow,
)

TOLERANCE = 1e-9


def make_instance(size=8, servers=4, seed=7, penalty_mode="mad"):
    workflow = random_graph_workflow(size, GraphStructure.HYBRID, seed=seed)
    network = random_bus_network(servers, seed=seed + 1)
    model = CostModel(workflow, network, penalty_mode=penalty_mode)
    deployment = Deployment.random(workflow, network, random.Random(seed))
    return workflow, network, model, deployment


class TestMoveEvaluatorLifecycle:
    def test_attach_matches_full_evaluation(self):
        _, _, model, deployment = make_instance()
        evaluator = MoveEvaluator(model, deployment)
        full = model.evaluate(deployment)
        assert evaluator.objective == pytest.approx(full.objective, abs=TOLERANCE)
        assert evaluator.execution_time == pytest.approx(
            full.execution_time, abs=TOLERANCE
        )
        assert evaluator.time_penalty == pytest.approx(
            full.time_penalty, abs=TOLERANCE
        )

    def test_propose_prices_without_mutating(self):
        workflow, network, model, deployment = make_instance()
        evaluator = MoveEvaluator(model, deployment)
        before = deployment.as_dict()
        operation = workflow.operation_names[0]
        target = next(
            s
            for s in network.server_names
            if s != deployment.server_of(operation)
        )
        outcome = evaluator.propose(operation, target)
        # the deployment and the evaluator state are untouched
        assert deployment.as_dict() == before
        assert evaluator.objective != outcome.objective or outcome.delta == 0.0
        # the priced objective equals a from-scratch evaluation of the move
        trial = deployment.copy()
        trial.assign(operation, target)
        full = model.evaluate(trial)
        assert outcome.objective == pytest.approx(full.objective, abs=TOLERANCE)
        assert outcome.execution_time == pytest.approx(
            full.execution_time, abs=TOLERANCE
        )
        assert outcome.time_penalty == pytest.approx(
            full.time_penalty, abs=TOLERANCE
        )
        assert outcome.delta == pytest.approx(
            full.objective - model.objective(deployment), abs=TOLERANCE
        )

    def test_commit_applies_into_attached_deployment(self):
        workflow, network, model, deployment = make_instance()
        evaluator = MoveEvaluator(model, deployment)
        operation = workflow.operation_names[0]
        target = next(
            s
            for s in network.server_names
            if s != deployment.server_of(operation)
        )
        outcome = evaluator.propose(operation, target)
        committed = evaluator.commit()
        assert committed is outcome
        assert deployment.server_of(operation) == target
        assert evaluator.objective == pytest.approx(
            model.objective(deployment), abs=TOLERANCE
        )

    def test_commit_without_propose_rejected(self):
        _, _, model, deployment = make_instance()
        evaluator = MoveEvaluator(model, deployment)
        with pytest.raises(DeploymentError):
            evaluator.commit()
        # a same-server propose clears any pending move
        operation = next(iter(deployment.as_dict()))
        evaluator.propose(operation, deployment.server_of(operation))
        with pytest.raises(DeploymentError):
            evaluator.commit()

    def test_unknown_server_rejected(self):
        workflow, _, model, deployment = make_instance()
        evaluator = MoveEvaluator(model, deployment)
        with pytest.raises(DeploymentError):
            evaluator.propose(workflow.operation_names[0], "no-such-server")

    def test_noop_move_has_zero_delta(self):
        workflow, _, model, deployment = make_instance()
        evaluator = MoveEvaluator(model, deployment)
        operation = workflow.operation_names[0]
        outcome = evaluator.apply(operation, deployment.server_of(operation))
        assert outcome.delta == 0.0
        assert outcome.server == outcome.previous_server

    def test_breakdown_matches_cost_model(self):
        _, _, model, deployment = make_instance()
        evaluator = MoveEvaluator(model, deployment)
        ours = evaluator.breakdown()
        full = model.evaluate(deployment)
        assert ours.objective == pytest.approx(full.objective, abs=TOLERANCE)
        assert ours.processing_time == pytest.approx(
            full.processing_time, abs=TOLERANCE
        )
        assert ours.communication_time == pytest.approx(
            full.communication_time, abs=TOLERANCE
        )
        assert ours.loads.keys() == full.loads.keys()
        for name in full.loads:
            assert ours.loads[name] == pytest.approx(
                full.loads[name], abs=TOLERANCE
            )

    @pytest.mark.parametrize("mode", PENALTY_MODES)
    def test_random_apply_sequence_stays_in_sync(self, mode):
        workflow, network, model, deployment = make_instance(
            size=10, servers=3, seed=11, penalty_mode=mode
        )
        evaluator = MoveEvaluator(model, deployment)
        rng = random.Random(99)
        operations = workflow.operation_names
        servers = network.server_names
        for _ in range(40):
            evaluator.apply(rng.choice(operations), rng.choice(servers))
            full = model.evaluate(deployment)
            assert evaluator.objective == pytest.approx(
                full.objective, abs=TOLERANCE
            )

    def test_resync_interval_validation(self):
        _, _, model, deployment = make_instance()
        with pytest.raises(DeploymentError):
            MoveEvaluator(model, deployment, resync_interval=-1)

    def test_attach_validates_once(self):
        workflow, network, model, _ = make_instance()
        broken = Deployment({workflow.operation_names[0]: "S1"})
        with pytest.raises(DeploymentError):
            MoveEvaluator(model, broken)


class TestScan:
    def test_counts_proposals_and_drops_pending_move(self):
        workflow, network, model, deployment = make_instance(servers=5)
        evaluator = MoveEvaluator(model, deployment)
        operation = workflow.operation_names[0]
        target = next(
            s
            for s in network.server_names
            if s != deployment.server_of(operation)
        )
        evaluator.propose(operation, target)
        before = evaluator.proposals
        evaluator.scan()
        assert evaluator.proposals == before + len(workflow) * 4
        with pytest.raises(DeploymentError):
            evaluator.commit()

    @pytest.mark.parametrize("aware", [False, True])
    @pytest.mark.parametrize("cap", [1, 5, 9])
    def test_blocked_scan_equals_one_block(self, monkeypatch, cap, aware):
        # a cap below one operation's S rows still takes whole operations
        workflow, network, model, deployment = make_instance(
            size=14, servers=4
        )
        if aware:
            baseline = Deployment.random(workflow, network, random.Random(5))
            model = CostModel(
                workflow,
                network,
                objective=TransitionObjective(
                    migration_weight=0.5,
                    migration=MigrationCostModel(state_bits_base=2e5),
                    baseline=baseline,
                ),
            )
            assert model.compiled.transition_aware
        evaluator = MoveEvaluator(model, deployment)
        rng = random.Random(3)
        for _ in range(6):
            evaluator.apply(
                rng.choice(workflow.operation_names),
                rng.choice(network.server_names),
            )
        whole = evaluator.scan()
        monkeypatch.setattr(incremental, "SCAN_BLOCK_ROWS", cap)
        blocked = evaluator.scan()
        assert blocked.tobytes() == whole.tobytes()


class TestTableScorer:
    """Full-mapping pricing through ``CompiledInstance.components``.

    The role the removed ``TableScorer`` played for genomes, leaves and
    samples: one server-index vector in, the cost model's floats out.
    """

    def test_components_match_cost_model(self):
        workflow, network, model, deployment = make_instance(seed=23)
        compiled = model.compiled
        execution, penalty, objective = compiled.components(
            compiled.server_vector(deployment)
        )
        full = model.evaluate(deployment)
        assert execution == pytest.approx(full.execution_time, abs=TOLERANCE)
        assert penalty == pytest.approx(full.time_penalty, abs=TOLERANCE)
        assert objective == pytest.approx(full.objective, abs=TOLERANCE)

    def test_score_mapping(self):
        _, _, model, deployment = make_instance(seed=41)
        compiled = model.compiled
        mapping = deployment.as_dict()
        servers = [
            compiled.server_index[mapping[name]] for name in compiled.op_names
        ]
        assert compiled.components(servers)[2] == pytest.approx(
            model.objective(deployment), abs=TOLERANCE
        )

    def test_line_workflow(self):
        workflow = line_workflow(6, seed=3)
        network = random_bus_network(3, seed=4)
        model = CostModel(workflow, network)
        deployment = Deployment.random(workflow, network, random.Random(5))
        compiled = model.compiled
        objective = compiled.components(compiled.server_vector(deployment))[2]
        assert objective == pytest.approx(
            model.objective(deployment), abs=TOLERANCE
        )
