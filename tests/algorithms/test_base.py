"""Unit tests for the algorithm base class, context and registry."""

import random

import pytest

from repro.algorithms.base import (
    DeploymentAlgorithm,
    ProblemContext,
    algorithm_registry,
    get_algorithm,
    register_algorithm,
)
from repro.algorithms.graph_adapters import WeightedGraph
from repro.core.cost import CostModel
from repro.core.mapping import Deployment
from repro.exceptions import AlgorithmError
from repro.network.topology import Server, ServerNetwork


class TestRegistry:
    def test_known_algorithms_registered(self):
        registry = algorithm_registry()
        for name in (
            "Exhaustive",
            "Random",
            "Line-Line",
            "FairLoad",
            "FL-TieResolver",
            "FL-TieResolver2",
            "FL-MergeMsgEnds",
            "HeavyOps-LargeMsgs",
            "HillClimbing",
            "SimulatedAnnealing",
        ):
            assert name in registry, name

    def test_get_algorithm(self):
        cls = get_algorithm("FairLoad")
        assert cls().name == "FairLoad"

    def test_unknown_name_raises_with_suggestions(self):
        with pytest.raises(AlgorithmError) as excinfo:
            get_algorithm("NoSuchAlgorithm")
        assert "FairLoad" in str(excinfo.value)

    def test_registry_returns_copy(self):
        registry = algorithm_registry()
        registry["FairLoad"] = None
        assert algorithm_registry()["FairLoad"] is not None

    def test_duplicate_registration_rejected(self):
        with pytest.raises(AlgorithmError):

            @register_algorithm
            class Duplicate(DeploymentAlgorithm):
                name = "FairLoad"

                def _deploy(self, context):  # pragma: no cover
                    return Deployment()

    def test_unnamed_registration_rejected(self):
        with pytest.raises(AlgorithmError):

            @register_algorithm
            class Unnamed(DeploymentAlgorithm):
                def _deploy(self, context):  # pragma: no cover
                    return Deployment()


class _AllOnFirst(DeploymentAlgorithm):
    """Trivial test algorithm: everything on the first server."""

    name = "test-all-on-first"

    def __init__(self):
        self.seen_context = None

    def _deploy(self, context):
        self.seen_context = context
        server = context.network.server_names[0]
        return Deployment(
            {name: server for name in context.workflow.operation_names}
        )


class TestDeployContract:
    def test_deploy_returns_complete_mapping(self, line3, bus3):
        deployment = _AllOnFirst().deploy(line3, bus3)
        assert deployment.is_complete(line3)

    def test_empty_workflow_rejected(self, bus3):
        from repro.core.workflow import Workflow

        with pytest.raises(AlgorithmError):
            _AllOnFirst().deploy(Workflow("empty"), bus3)

    def test_empty_network_rejected(self, line3):
        with pytest.raises(AlgorithmError):
            _AllOnFirst().deploy(line3, ServerNetwork("empty"))

    def test_disconnected_network_rejected(self, line3):
        from repro.exceptions import DisconnectedNetworkError

        network = ServerNetwork("disc")
        network.add_servers([Server("S1", 1e9), Server("S2", 1e9)])
        with pytest.raises(DisconnectedNetworkError):
            _AllOnFirst().deploy(line3, network)

    def test_incomplete_result_rejected(self, line3, bus3):
        class Broken(DeploymentAlgorithm):
            name = "test-broken"

            def _deploy(self, context):
                return Deployment({"A": "S1"})  # misses B and C

        from repro.exceptions import IncompleteMappingError

        with pytest.raises(IncompleteMappingError):
            Broken().deploy(line3, bus3)

    def test_int_seed_and_rng_accepted(self, line3, bus3):
        algorithm = _AllOnFirst()
        algorithm.deploy(line3, bus3, rng=7)
        assert isinstance(algorithm.seen_context.rng, random.Random)
        algorithm.deploy(line3, bus3, rng=random.Random(7))

    def test_cost_model_defaulted(self, line3, bus3):
        algorithm = _AllOnFirst()
        algorithm.deploy(line3, bus3)
        assert isinstance(algorithm.seen_context.cost_model, CostModel)

    def test_shared_cost_model_used(self, line3, bus3):
        model = CostModel(line3, bus3)
        algorithm = _AllOnFirst()
        algorithm.deploy(line3, bus3, cost_model=model)
        assert algorithm.seen_context.cost_model is model


class TestProblemContextWeights:
    """The section 3.4 weights a heuristic reads through WeightedGraph."""

    def test_line_weights_are_one(self, line3, bus3):
        algorithm = _AllOnFirst()
        algorithm.deploy(line3, bus3)
        compiled = algorithm.seen_context.compiled
        graph = WeightedGraph(compiled, True)
        assert graph.cycles == tuple(op.cycles for op in line3)
        assert [bits for _, _, bits in graph.messages] == [
            m.size_bits for m in line3.messages
        ]

    def test_xor_weights_follow_probabilities(self, xor_diamond, bus3):
        algorithm = _AllOnFirst()
        algorithm.deploy(xor_diamond, bus3)
        compiled = algorithm.seen_context.compiled
        graph = WeightedGraph(compiled, True)
        index = compiled.op_index
        assert graph.cycles[index["left"]] == pytest.approx(0.7 * 20e6)
        bits = {(s, t): b for s, t, b in graph.messages}
        size = xor_diamond.message("choice", "right").size_bits
        assert bits[(index["choice"], index["right"])] == pytest.approx(
            0.3 * size
        )

    def test_opt_out_of_weighting(self, xor_diamond, bus3):
        algorithm = _AllOnFirst()
        algorithm.deploy(xor_diamond, bus3)
        graph = WeightedGraph(algorithm.seen_context.compiled, False)
        assert graph.cycles == tuple(op.cycles for op in xor_diamond)
        assert [bits for _, _, bits in graph.messages] == [
            m.size_bits for m in xor_diamond.messages
        ]
        assert sum(graph.ideal_cycles) == pytest.approx(
            xor_diamond.total_cycles
        )

    def test_weighted_cycles_and_bits(self, xor_diamond, bus3):
        algorithm = _AllOnFirst()
        algorithm.deploy(xor_diamond, bus3)
        compiled = algorithm.seen_context.compiled
        graph = WeightedGraph(compiled, True)
        left = compiled.op_index["left"]
        choice = compiled.op_index["choice"]
        assert graph.cycles[left] == pytest.approx(0.7 * 20e6)
        assert (choice, pytest.approx(0.7 * 8_000)) in graph.incoming[left]
        assert graph.neighbours[left] == (
            graph.incoming[left] + graph.outgoing[left]
        )
        assert sum(graph.ideal_cycles) == pytest.approx(48e6)

    def test_initial_ideal_cycles(self, line3, bus3):
        algorithm = _AllOnFirst()
        algorithm.deploy(line3, bus3)
        graph = WeightedGraph(algorithm.seen_context.compiled, True)
        assert graph.ideal_cycles == pytest.approx((10e6, 20e6, 30e6))
