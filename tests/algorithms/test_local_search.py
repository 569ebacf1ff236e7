"""Unit tests for the local-search refinement extensions."""

import random

import pytest

from repro.algorithms.exhaustive import Exhaustive
from repro.algorithms.fair_load import FairLoad
from repro.algorithms.heavy_ops import HeavyOpsLargeMsgs
from repro.algorithms.local_search import HillClimbing, SimulatedAnnealing
from repro.algorithms.tie_resolver import FairLoadTieResolver2
from repro.core.cost import CostModel
from repro.core.mapping import Deployment
from repro.core.workflow import Operation, Workflow
from repro.exceptions import AlgorithmError
from repro.network.topology import bus_network
from repro.workloads import ClassCParameters
from repro.workloads.generator import (
    GraphStructure,
    random_bus_network,
    random_graph_workflow,
)
from tests.oracles import per_move_hill_climbing


@pytest.fixture
def tiny():
    workflow = Workflow("tiny")
    workflow.add_operations(
        [Operation("A", 10e6), Operation("B", 20e6), Operation("C", 30e6)]
    )
    workflow.connect("A", "B", 50_000)
    workflow.connect("B", "C", 100_000)
    network = bus_network([1e9, 2e9], speed_bps=1e6)
    return workflow, network, CostModel(workflow, network)


class TestHillClimbing:
    def test_parameter_validation(self):
        with pytest.raises(AlgorithmError):
            HillClimbing(max_iterations=0)

    def test_sweep_option_removed(self):
        # every round is one MoveEvaluator.scan; there is no second sweep
        with pytest.raises(TypeError):
            HillClimbing(sweep="batch")

    def test_scan_sweep_matches_per_move_oracle(self, tiny):
        workflow, network, model = tiny
        deployment, report = HillClimbing().deploy_with_report(
            workflow, network, cost_model=model, rng=4
        )
        start = Deployment.random(workflow, network, random.Random(4))
        expected, evaluations, accepted, rejected = per_move_hill_climbing(
            model, start
        )
        assert deployment.as_dict() == expected.as_dict()
        assert (report.evaluations, report.accepted, report.rejected) == (
            evaluations,
            accepted,
            rejected,
        )
        full = HillClimbing(use_incremental=False).deploy(
            workflow, network, cost_model=model, rng=4
        )
        assert full.as_dict() == deployment.as_dict()
        assert model.objective(full) == model.objective(deployment)

    def test_hybrid_near_tie_follows_the_per_move_oracle(self):
        # a deploy-search-shaped instance (32-op hybrid graph, 12-server
        # 100 Mbps bus, FL-TieResolver2 start) on which the running-sum
        # loads of the incremental path break a near-tie differently
        # from full evaluation: the scan must follow the per-move path
        workflow = random_graph_workflow(
            32, GraphStructure.HYBRID, seed=26557776
        )
        network = random_bus_network(
            12,
            seed=1883921597,
            parameters=ClassCParameters.paper().with_fixed_bus_speed(100e6),
        )
        model = CostModel(workflow, network)
        seed = 1546643347
        start = FairLoadTieResolver2().deploy(
            workflow, network, cost_model=model, rng=seed
        )
        deployment, report = HillClimbing(
            seed_algorithm=FairLoadTieResolver2()
        ).deploy_with_report(workflow, network, cost_model=model, rng=seed)
        expected, evaluations, accepted, rejected = per_move_hill_climbing(
            model, start
        )
        assert deployment.as_dict() == expected.as_dict()
        assert (report.evaluations, report.accepted, report.rejected) == (
            evaluations,
            accepted,
            rejected,
        )
        full = HillClimbing(
            seed_algorithm=FairLoadTieResolver2(), use_incremental=False
        ).deploy(workflow, network, cost_model=model, rng=seed)
        assert full.as_dict() != deployment.as_dict()
        assert model.objective(full) == pytest.approx(
            model.objective(deployment), rel=1e-9
        )

    def test_result_is_a_local_optimum(self, tiny):
        """No single-operation move may improve the returned mapping."""
        workflow, network, model = tiny
        result = HillClimbing().deploy(workflow, network, cost_model=model, rng=1)
        value = model.objective(result)
        for operation in workflow.operation_names:
            original = result.server_of(operation)
            for server in network.server_names:
                if server == original:
                    continue
                result.assign(operation, server)
                assert model.objective(result) >= value - 1e-15
                result.assign(operation, original)

    def test_random_restarts_reach_optimum_on_tiny_instance(self, tiny):
        workflow, network, model = tiny
        optimum = Exhaustive().best(workflow, network, model).cost.objective
        best = min(
            model.objective(
                HillClimbing().deploy(workflow, network, cost_model=model, rng=seed)
            )
            for seed in range(8)
        )
        assert best == pytest.approx(optimum)

    def test_never_worse_than_seed_algorithm(self, line5, bus3):
        model = CostModel(line5, bus3)
        seed_algorithm = FairLoad()
        seeded = seed_algorithm.deploy(line5, bus3, cost_model=model)
        refined = HillClimbing(seed_algorithm=seed_algorithm).deploy(
            line5, bus3, cost_model=model, rng=2
        )
        assert model.objective(refined) <= model.objective(seeded) + 1e-15

    def test_polishes_holm(self, tiny):
        workflow, network, model = tiny
        seeded = HeavyOpsLargeMsgs().deploy(workflow, network, cost_model=model)
        refined = HillClimbing(seed_algorithm=HeavyOpsLargeMsgs()).deploy(
            workflow, network, cost_model=model, rng=0
        )
        assert model.objective(refined) <= model.objective(seeded) + 1e-15

    def test_deterministic_given_seed_algorithm(self, line5, bus3):
        algorithm = HillClimbing(seed_algorithm=FairLoad())
        d1 = algorithm.deploy(line5, bus3, rng=3)
        d2 = algorithm.deploy(line5, bus3, rng=3)
        assert d1 == d2

    def test_iteration_cap_respected(self, line5, bus3):
        # one round may not reach a local optimum, but must return a
        # complete mapping regardless
        deployment = HillClimbing(max_iterations=1).deploy(line5, bus3, rng=1)
        assert deployment.is_complete(line5)


class TestSimulatedAnnealing:
    @pytest.mark.parametrize(
        "kwargs",
        [
            {"initial_temperature": 0.0},
            {"initial_temperature": -1.0},
            {"cooling": 0.0},
            {"cooling": 1.0},
            {"steps": 0},
        ],
    )
    def test_parameter_validation(self, kwargs):
        with pytest.raises(AlgorithmError):
            SimulatedAnnealing(**kwargs)

    def test_reaches_optimum_on_tiny_instance(self, tiny):
        workflow, network, model = tiny
        optimum = Exhaustive().best(workflow, network, model).cost.objective
        result = SimulatedAnnealing(steps=3_000).deploy(
            workflow, network, cost_model=model, rng=4
        )
        assert model.objective(result) == pytest.approx(optimum, rel=1e-9)

    def test_single_server_short_circuits(self, line3):
        network = bus_network([1e9], speed_bps=1e6)
        deployment = SimulatedAnnealing().deploy(line3, network, rng=1)
        assert set(deployment.as_dict().values()) == {"S1"}

    def test_deterministic_per_seed(self, line5, bus3):
        d1 = SimulatedAnnealing(steps=200).deploy(line5, bus3, rng=9)
        d2 = SimulatedAnnealing(steps=200).deploy(line5, bus3, rng=9)
        assert d1 == d2

    def test_returns_best_seen_not_last(self, line5, bus3):
        """The result must be at least as good as a plain random mapping
        refined by chance -- i.e. SA tracks the best-so-far state."""
        from repro.core.mapping import Deployment
        import random

        model = CostModel(line5, bus3)
        sa_value = model.objective(
            SimulatedAnnealing(steps=1_000).deploy(
                line5, bus3, cost_model=model, rng=11
            )
        )
        random_value = model.objective(
            Deployment.random(line5, bus3, random.Random(11))
        )
        assert sa_value <= random_value + 1e-15
