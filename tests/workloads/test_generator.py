"""Unit tests for the workflow and network generators."""

import random

import pytest

from repro.core.validation import check_well_formed
from repro.core.workflow import NodeKind
from repro.exceptions import ExperimentError
from repro.workloads.generator import (
    GraphStructure,
    line_workflow,
    random_bus_network,
    random_graph_workflow,
    random_line_network,
)
from repro.workloads.parameters import ClassCParameters


class TestLineWorkflow:
    def test_shape(self):
        workflow = line_workflow(19, seed=1)
        assert len(workflow) == 19
        assert workflow.is_line()
        assert len(workflow.messages) == 18

    def test_sampled_values_come_from_table6(self):
        workflow = line_workflow(30, seed=2)
        cycles = {op.cycles for op in workflow}
        assert cycles <= {10e6, 20e6, 30e6}
        sizes = {m.size_bits for m in workflow.messages}
        assert sizes <= {873 * 8, 7_581 * 8, 21_392 * 8}

    def test_deterministic_per_seed(self):
        w1 = line_workflow(10, seed=3)
        w2 = line_workflow(10, seed=3)
        assert [op.cycles for op in w1] == [op.cycles for op in w2]
        assert [m.size_bits for m in w1.messages] == [
            m.size_bits for m in w2.messages
        ]

    def test_single_operation(self):
        workflow = line_workflow(1, seed=0)
        assert len(workflow) == 1 and not workflow.messages

    def test_rejects_zero_operations(self):
        with pytest.raises(ExperimentError):
            line_workflow(0)

    def test_accepts_shared_rng(self):
        rng = random.Random(4)
        w1 = line_workflow(5, seed=rng)
        w2 = line_workflow(5, seed=rng)  # continues the stream
        assert len(w1) == len(w2) == 5


class TestGraphStructure:
    def test_paper_fractions(self):
        assert GraphStructure.BUSHY.decision_fraction == 0.50
        assert GraphStructure.LENGTHY.decision_fraction == 0.16
        assert GraphStructure.HYBRID.decision_fraction == 0.35


class TestRandomGraphWorkflow:
    @pytest.mark.parametrize("structure", list(GraphStructure))
    @pytest.mark.parametrize("size", [7, 19, 40])
    def test_well_formed_and_sized(self, structure, size):
        for seed in range(5):
            workflow = random_graph_workflow(size, structure, seed=seed)
            assert len(workflow) == size, (structure, size, seed)
            report = check_well_formed(workflow)
            assert report.ok, (structure, size, seed, report.problems)

    def test_decision_fraction_tracks_target(self):
        for structure in GraphStructure:
            fractions = [
                random_graph_workflow(40, structure, seed=s).decision_fraction()
                for s in range(10)
            ]
            mean = sum(fractions) / len(fractions)
            assert mean == pytest.approx(
                structure.decision_fraction, abs=0.08
            ), structure

    def test_bushy_has_more_decisions_than_lengthy(self):
        bushy = random_graph_workflow(30, GraphStructure.BUSHY, seed=1)
        lengthy = random_graph_workflow(30, GraphStructure.LENGTHY, seed=1)
        assert bushy.decision_fraction() > lengthy.decision_fraction()

    def test_xor_probabilities_valid(self):
        for seed in range(5):
            workflow = random_graph_workflow(
                25, GraphStructure.BUSHY, seed=seed
            )
            workflow.validate_xor_probabilities()

    def test_kind_weights_respected(self):
        only_xor = ((NodeKind.XOR_SPLIT, 1.0),)
        workflow = random_graph_workflow(
            30, GraphStructure.BUSHY, seed=2, kind_weights=only_xor
        )
        split_kinds = {op.kind for op in workflow if op.kind.is_split}
        assert split_kinds <= {NodeKind.XOR_SPLIT}

    def test_max_branches_respected(self):
        workflow = random_graph_workflow(
            40, GraphStructure.BUSHY, seed=3, max_branches=2
        )
        for op in workflow:
            if op.kind.is_split:
                assert len(workflow.successors(op.name)) <= 2

    def test_max_branches_validation(self):
        with pytest.raises(ExperimentError):
            random_graph_workflow(10, max_branches=1)

    def test_tiny_workflows_degrade_gracefully(self):
        for size in (1, 2, 3):
            workflow = random_graph_workflow(
                size, GraphStructure.BUSHY, seed=0
            )
            assert len(workflow) == size
            assert check_well_formed(workflow).ok

    def test_deterministic_per_seed(self):
        w1 = random_graph_workflow(20, GraphStructure.HYBRID, seed=7)
        w2 = random_graph_workflow(20, GraphStructure.HYBRID, seed=7)
        assert w1.operation_names == w2.operation_names
        assert [m.pair for m in w1.messages] == [m.pair for m in w2.messages]

    def test_single_entry_and_exit(self):
        workflow = random_graph_workflow(25, GraphStructure.HYBRID, seed=9)
        assert len(workflow.entries) == 1
        assert len(workflow.exits) == 1

    def test_branch_probabilities_do_not_depend_on_the_interpreter(self):
        # normalised by a left fold: Python 3.12's compensated builtin
        # sum() gives 0.42507632559898556 for this first branch
        workflow = random_graph_workflow(30, GraphStructure.LENGTHY, seed=5)
        split = next(op for op in workflow if op.kind is NodeKind.XOR_SPLIT)
        first = workflow.outgoing(split.name)[0]
        assert first.probability == 0.4250763255989855


class TestNetworkGenerators:
    def test_bus_network_sampling(self):
        network = random_bus_network(5, seed=1)
        assert len(network) == 5
        assert network.is_uniform_bus()
        powers = {s.power_hz for s in network}
        assert powers <= {1e9, 2e9, 3e9}
        assert network.uniform_speed_bps in {10e6, 100e6, 1000e6}

    def test_line_network_sampling(self):
        network = random_line_network(4, seed=2)
        assert network.is_line()
        assert len(network.links) == 3
        speeds = {link.speed_bps for link in network.links}
        assert speeds <= {10e6, 100e6, 1000e6}

    def test_single_server_network(self):
        assert len(random_bus_network(1, seed=0)) == 1
        assert len(random_line_network(1, seed=0)) == 1

    def test_rejects_zero_servers(self):
        with pytest.raises(ExperimentError):
            random_bus_network(0)
        with pytest.raises(ExperimentError):
            random_line_network(0)

    def test_custom_parameters(self):
        params = ClassCParameters.paper().with_fixed_bus_speed(5e6)
        network = random_bus_network(3, seed=3, parameters=params)
        assert network.uniform_speed_bps == 5e6
