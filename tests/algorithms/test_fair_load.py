"""Unit tests for the Fair Load algorithm (worst-fit bin packing)."""

import pytest

from repro.algorithms.fair_load import FairLoad
from repro.algorithms.graph_adapters import WeightedGraph
from repro.core.cost import CostModel
from repro.core.workflow import Operation, Workflow
from repro.network.topology import bus_network


def test_perfect_fit_is_perfectly_fair(line3, bus3):
    """Cycles 10/20/30M exactly match the ideal shares of 1/2/3 GHz."""
    deployment = FairLoad().deploy(line3, bus3)
    assert deployment.as_dict() == {"A": "S1", "B": "S2", "C": "S3"}
    assert CostModel(line3, bus3).time_penalty(deployment) == pytest.approx(0.0)


def test_heaviest_operation_goes_to_biggest_budget():
    workflow = Workflow("w")
    workflow.add_operations(
        [Operation("big", 100e6), Operation("small", 1e6)]
    )
    workflow.connect("big", "small", 10)
    network = bus_network([1e9, 3e9], speed_bps=100e6)
    deployment = FairLoad().deploy(workflow, network)
    assert deployment.server_of("big") == "S2"


def test_loads_proportional_to_power(line5, bus3):
    """Worst-fit keeps server times close to each other."""
    model = CostModel(line5, bus3)
    deployment = FairLoad().deploy(line5, bus3, cost_model=model)
    loads = model.loads(deployment)
    mean = sum(loads.values()) / len(loads)
    # every server within one operation's time of the mean
    slowest_power = min(s.power_hz for s in bus3)
    tolerance = 10e6 / slowest_power
    assert all(abs(v - mean) <= tolerance for v in loads.values())


def test_ignores_messages_entirely():
    """Fair Load is communication-blind: message sizes cannot change it."""
    small = Workflow("small-msgs")
    small.add_operations([Operation(f"O{i}", 10e6) for i in range(1, 5)])
    for a, b in zip(small.operation_names, small.operation_names[1:]):
        small.connect(a, b, 10)
    big = small.scaled(message_factor=1e6, name="big-msgs")
    network = bus_network([1e9, 1e9], speed_bps=1e6)
    d_small = FairLoad().deploy(small, network)
    d_big = FairLoad().deploy(big, network)
    assert d_small.as_dict() == d_big.as_dict()


def test_unweighted_on_xor_graphs(xor_diamond, bus3):
    """Section 3.4: Fair Load 'remains exactly the same' on graphs."""
    weighted_model = CostModel(xor_diamond, bus3)
    deployment = FairLoad().deploy(xor_diamond, bus3, cost_model=weighted_model)
    # the 40M 'right' op outweighs 20M 'left' in raw cycles even though its
    # weighted cost (0.3 * 40M) is lower; Fair Load must use raw cycles, so
    # 'right' is placed before 'left' and lands on the biggest budget
    ordered = sorted(
        xor_diamond.operation_names,
        key=lambda n: -xor_diamond.operation(n).cycles,
    )
    assert ordered[0] == "right"
    assert deployment.server_of("right") == "S3"


def test_deterministic_without_rng(line5, bus3):
    d1 = FairLoad().deploy(line5, bus3)
    d2 = FairLoad().deploy(line5, bus3)
    assert d1 == d2


def test_sorted_operations_by_cost_stable_ties(line5, bus5):
    """Equal-cost operations keep workflow insertion order."""
    from repro.algorithms.base import DeploymentAlgorithm
    from repro.core.mapping import Deployment

    class Probe(DeploymentAlgorithm):
        name = "test-probe-sort"

        def _deploy(self, context):
            graph = WeightedGraph(context.compiled, True)
            names = context.compiled.op_names
            self.order = [names[op] for op in graph.by_cost()]
            return Deployment.round_robin(context.workflow, context.network)

    probe = Probe()
    probe.deploy(line5, bus5)
    assert probe.order == list(line5.operation_names)


def test_single_server_takes_everything(line5):
    network = bus_network([1e9], speed_bps=1e6)
    deployment = FairLoad().deploy(line5, network)
    assert set(deployment.as_dict().values()) == {"S1"}


def test_more_servers_than_operations(line3):
    network = bus_network([1e9] * 6, speed_bps=100e6)
    deployment = FairLoad().deploy(line3, network)
    assert deployment.is_complete(line3)
    # the three ops land on three distinct servers (worst-fit spreads)
    assert len(set(deployment.as_dict().values())) == 3
