"""Unit tests for FLTR and FLTR2 (tie-resolving Fair Load variants)."""

import statistics

import pytest

from repro.algorithms.base import DeploymentAlgorithm
from repro.algorithms.fair_load import FairLoad
from repro.algorithms.graph_adapters import (
    UNPLACED,
    ServerBudgets,
    WeightedGraph,
    gain_of_operation_at_servers,
)
from repro.algorithms.tie_resolver import (
    FairLoadTieResolver,
    FairLoadTieResolver2,
    tied_prefix,
)
from repro.core.cost import CostModel
from repro.core.mapping import Deployment
from repro.core.workflow import Operation, Workflow
from repro.network.topology import bus_network


def uniform_line(num_ops=6, cycles=10e6, sizes=None):
    """A line whose operations all tie on cost (ties everywhere)."""
    workflow = Workflow("uniform")
    names = [f"O{i}" for i in range(1, num_ops + 1)]
    workflow.add_operations(Operation(n, cycles) for n in names)
    sizes = sizes or [8_000] * (num_ops - 1)
    for (a, b), size in zip(zip(names, names[1:]), sizes):
        workflow.connect(a, b, size)
    return workflow


class TestTiedPrefix:
    def test_all_distinct(self):
        assert tied_prefix(["a", "b"], {"a": 3.0, "b": 1.0}.__getitem__) == ["a"]

    def test_ties_extend_prefix(self):
        key = {"a": 3.0, "b": 3.0, "c": 1.0}.__getitem__
        assert tied_prefix(["a", "b", "c"], key) == ["a", "b"]

    def test_empty(self):
        assert tied_prefix([], lambda n: 0.0) == []

    def test_relative_tolerance(self):
        key = {"a": 1e9, "b": 1e9 * (1 + 1e-12), "c": 2e9}.__getitem__
        assert tied_prefix(["c", "b", "a"], key) == ["c"]
        assert tied_prefix(["b", "a"], key) == ["b", "a"]


def _graph(workflow, network):
    """The weighted index view a probe deploy's context compiles to."""

    class Probe(DeploymentAlgorithm):
        name = "test-gain-probe"

        def _deploy(self, context):
            self.context = context
            return Deployment.round_robin(context.workflow, context.network)

    probe = Probe()
    probe.deploy(workflow, network)
    return WeightedGraph(probe.context.compiled, True)


def _vector(graph, mapping):
    """The server vector of a partial name mapping (-1 when unplaced)."""
    compiled = graph.compiled
    return [
        compiled.server_index[mapping[name]] if name in mapping else UNPLACED
        for name in compiled.op_names
    ]


class TestGainFunction:
    def test_gain_counts_colocated_neighbors(self, bus3):
        workflow = uniform_line(3, sizes=[1_000, 5_000])
        graph = _graph(workflow, bus3)
        servers = _vector(graph, {"O1": "S1", "O3": "S1"})
        gains = gain_of_operation_at_servers(graph, 1, servers)
        # placing O2 on S1 saves both its messages
        assert gains[0] == pytest.approx(6_000)
        # placing it elsewhere saves nothing
        assert gains.get(1, 0.0) == 0.0

    def test_gain_ignores_unmapped_neighbors(self, bus3):
        workflow = uniform_line(3, sizes=[1_000, 5_000])
        graph = _graph(workflow, bus3)
        servers = _vector(graph, {"O1": "S1"})
        gains = gain_of_operation_at_servers(graph, 1, servers)
        assert gains[0] == pytest.approx(1_000)
        assert set(gains) == {0, UNPLACED}

    def test_gain_weighted_by_probability(self, xor_diamond, bus3):
        graph = _graph(xor_diamond, bus3)
        servers = _vector(graph, {"choice": "S1"})
        left = graph.compiled.op_index["left"]
        gain = gain_of_operation_at_servers(graph, left, servers)[0]
        assert gain == pytest.approx(0.7 * 8_000)


class TestServerBudgets:
    def test_neediest_follows_capacity(self, line3, bus3):
        budgets = ServerBudgets(_graph(line3, bus3).ideal_cycles)
        assert budgets.neediest() == 2  # S3
        budgets.charge(2, 25e6)  # 30M -> 5M remaining
        assert budgets.neediest() == 1  # S2

    def test_ties_keep_insertion_order(self, line3):
        network = bus_network([1e9, 1e9, 1e9], speed_bps=1e6)
        budgets = ServerBudgets(_graph(line3, network).ideal_cycles)
        assert budgets.neediest() == 0
        assert budgets.tied_with_neediest() == [0, 1, 2]
        budgets.charge(0, 1e6)
        assert budgets.neediest() == 1
        assert budgets.tied_with_neediest() == [1, 2]

    def test_as_dict_snapshot(self, line3, bus3):
        budgets = ServerBudgets(_graph(line3, bus3).ideal_cycles)
        snapshot = list(budgets.remaining)
        budgets.charge(0, 5e6)
        assert snapshot[0] == pytest.approx(10e6)
        assert budgets.remaining[0] == pytest.approx(5e6)


class TestFLTR:
    def test_equals_fair_load_without_ties(self, line3, bus3):
        """Distinct costs leave nothing to resolve: FLTR == Fair Load."""
        fair = FairLoad().deploy(line3, bus3)
        fltr = FairLoadTieResolver().deploy(line3, bus3, rng=9)
        assert fltr.as_dict() == fair.as_dict()

    def test_deterministic_per_seed(self, bus3):
        workflow = uniform_line()
        d1 = FairLoadTieResolver().deploy(workflow, bus3, rng=4)
        d2 = FairLoadTieResolver().deploy(workflow, bus3, rng=4)
        assert d1 == d2

    def test_reduces_communication_under_ties(self):
        """With all-equal cycles, gains steer ops toward their neighbours,
        cutting communication versus tie-blind Fair Load on average."""
        workflow = uniform_line(10)
        network = bus_network([1e9, 1e9], speed_bps=1e6)
        model = CostModel(workflow, network)
        fair = model.total_communication_time(
            FairLoad().deploy(workflow, network)
        )
        resolver_costs = [
            model.total_communication_time(
                FairLoadTieResolver().deploy(workflow, network, rng=seed)
            )
            for seed in range(10)
        ]
        assert statistics.mean(resolver_costs) <= fair

    def test_preserves_fairness(self, bus3):
        """Tie resolution must not degrade the load distribution."""
        workflow = uniform_line(9)
        model = CostModel(workflow, bus3)
        fair_penalty = model.time_penalty(FairLoad().deploy(workflow, bus3))
        fltr_penalty = model.time_penalty(
            FairLoadTieResolver().deploy(workflow, bus3, rng=1)
        )
        assert fltr_penalty == pytest.approx(fair_penalty, abs=1e-12)


class TestEmptyStartAblation:
    """The ``random_start=False`` variants (DESIGN.md ablation)."""

    def test_empty_start_still_complete_and_valid(self, bus3):
        workflow = uniform_line()
        for cls in (FairLoadTieResolver, FairLoadTieResolver2):
            deployment = cls(random_start=False).deploy(workflow, bus3, rng=1)
            deployment.validate(workflow, bus3)

    def test_empty_start_is_seed_independent(self, bus3):
        """Without the random mapping nothing is stochastic."""
        workflow = uniform_line()
        algorithm = FairLoadTieResolver(random_start=False)
        assert algorithm.deploy(workflow, bus3, rng=1) == algorithm.deploy(
            workflow, bus3, rng=999
        )

    def test_empty_start_equals_fair_load_without_ties(self, line3, bus3):
        fair = FairLoad().deploy(line3, bus3)
        fltr = FairLoadTieResolver(random_start=False).deploy(
            line3, bus3, rng=1
        )
        assert fltr.as_dict() == fair.as_dict()

    def test_flmme_empty_start_valid(self, bus3):
        from repro.algorithms.merge_messages import FairLoadMergeMessages

        workflow = uniform_line(8, sizes=[50_000] * 7)
        deployment = FairLoadMergeMessages(random_start=False).deploy(
            workflow, bus3, rng=1
        )
        deployment.validate(workflow, bus3)


class TestFLTR2:
    def test_equals_fair_load_without_ties(self, line3, bus3):
        fair = FairLoad().deploy(line3, bus3)
        fltr2 = FairLoadTieResolver2().deploy(line3, bus3, rng=9)
        assert fltr2.as_dict() == fair.as_dict()

    def test_deterministic_per_seed(self, bus3):
        workflow = uniform_line()
        d1 = FairLoadTieResolver2().deploy(workflow, bus3, rng=4)
        d2 = FairLoadTieResolver2().deploy(workflow, bus3, rng=4)
        assert d1 == d2

    def test_exploits_server_ties(self):
        """Equal-power servers widen the candidate set; FLTR2 may pick a
        server other than the first to co-locate with a mapped neighbour."""
        workflow = uniform_line(8, sizes=[50_000] * 7)
        network = bus_network([1e9, 1e9, 1e9], speed_bps=1e6)
        model = CostModel(workflow, network)
        fltr = statistics.mean(
            model.total_communication_time(
                FairLoadTieResolver().deploy(workflow, network, rng=seed)
            )
            for seed in range(8)
        )
        fltr2 = statistics.mean(
            model.total_communication_time(
                FairLoadTieResolver2().deploy(workflow, network, rng=seed)
            )
            for seed in range(8)
        )
        assert fltr2 <= fltr

    def test_complete_on_graph_workflows(self, xor_diamond, bus3):
        deployment = FairLoadTieResolver2().deploy(xor_diamond, bus3, rng=2)
        assert deployment.is_complete(xor_diamond)
