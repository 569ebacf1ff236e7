"""Property-based tests for the extension modules.

Failover, incremental adaptation and monitoring must preserve the core
invariants (completeness, work conservation, probability consistency)
on arbitrary generated instances, not just the handcrafted unit cases.
"""

import random

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.algorithms.fair_load import FairLoad
from repro.core.cost import CostModel
from repro.core.mapping import Deployment
from repro.core.workflow import Operation
from repro.experiments.failover import analyze_failure
from repro.experiments.incremental import patch_deployment
from repro.network.topology import remove_server
from repro.workloads.generator import (
    GraphStructure,
    line_workflow,
    random_bus_network,
    random_graph_workflow,
)
from repro.workloads.monitoring import (
    calibrated_workflow,
    observe_branch_frequencies,
)

sizes = st.integers(min_value=2, max_value=20)
server_counts = st.integers(min_value=2, max_value=5)
seeds = st.integers(min_value=0, max_value=10_000)


@given(size=sizes, servers=server_counts, seed=seeds)
@settings(max_examples=25, deadline=None)
def test_failover_recovery_is_always_complete(size, servers, seed):
    workflow = line_workflow(size, seed=seed)
    network = random_bus_network(servers, seed=seed + 1)
    deployment = FairLoad().deploy(workflow, network)
    failed = network.server_names[seed % servers]
    report = analyze_failure(workflow, network, deployment, failed)
    survivor = remove_server(network, failed)
    report.recovered.validate(workflow, survivor)
    assert failed not in report.recovered.as_dict().values()


@given(size=sizes, servers=server_counts, seed=seeds)
@settings(max_examples=25, deadline=None)
def test_failover_conserves_work(size, servers, seed):
    workflow = line_workflow(size, seed=seed)
    network = random_bus_network(servers, seed=seed + 1)
    deployment = FairLoad().deploy(workflow, network)
    failed = network.server_names[seed % servers]
    report = analyze_failure(workflow, network, deployment, failed)
    survivor = remove_server(network, failed)
    recovered_cycles = sum(
        report.after.loads[s.name] * s.power_hz for s in survivor
    )
    assert abs(recovered_cycles - workflow.total_cycles) <= 1e-3


@given(size=sizes, servers=server_counts, seed=seeds)
@settings(max_examples=25, deadline=None)
def test_incremental_patch_preserves_survivor_assignments(size, servers, seed):
    workflow = line_workflow(size, seed=seed)
    network = random_bus_network(servers, seed=seed + 1)
    old = Deployment.random(workflow, network, random.Random(seed))
    grown = workflow.copy(f"{workflow.name}-grown")
    grown.add_operation(Operation("EXTRA", 15e6))
    grown.connect(workflow.operation_names[-1], "EXTRA", 1_000)
    patched = patch_deployment(grown, network, old)
    patched.validate(grown, network)
    for operation, server in old:
        assert patched.server_of(operation) == server


@given(size=st.integers(min_value=5, max_value=18), seed=seeds)
@settings(max_examples=10, deadline=None)
def test_monitoring_frequencies_normalised_per_split(size, seed):
    from repro.core.workflow import NodeKind

    workflow = random_graph_workflow(
        size,
        GraphStructure.BUSHY,
        seed=seed,
        kind_weights=((NodeKind.XOR_SPLIT, 1.0),),
    )
    network = random_bus_network(3, seed=seed + 1)
    deployment = Deployment.random(workflow, network, random.Random(seed))
    frequencies = observe_branch_frequencies(
        workflow, network, deployment, runs=60, rng=seed
    )
    per_split: dict[str, float] = {}
    for (split, _head), value in frequencies.items():
        per_split[split] = per_split.get(split, 0.0) + value
    for split, total in per_split.items():
        assert abs(total - 1.0) <= 1e-9, split


@given(size=st.integers(min_value=5, max_value=18), seed=seeds)
@settings(max_examples=10, deadline=None)
def test_calibrated_workflows_stay_valid_and_deployable(size, seed):
    from repro.core.validation import check_well_formed
    from repro.core.workflow import NodeKind

    workflow = random_graph_workflow(
        size,
        GraphStructure.HYBRID,
        seed=seed,
        kind_weights=((NodeKind.XOR_SPLIT, 1.0),),
    )
    network = random_bus_network(3, seed=seed + 1)
    deployment = Deployment.random(workflow, network, random.Random(seed))
    frequencies = observe_branch_frequencies(
        workflow, network, deployment, runs=40, rng=seed
    )
    calibrated = calibrated_workflow(workflow, frequencies)
    assert check_well_formed(calibrated).ok
    CostModel(calibrated, network)  # constructible => probabilities valid
    redeployed = FairLoad().deploy(calibrated, network)
    assert redeployed.is_complete(calibrated)
