"""Property tests: failover and incremental patching fill as the oracle.

:func:`repro.experiments.failover.replace_orphans` and
:func:`repro.experiments.incremental.patch_deployment` place through
the one index-space worst-fit fill
(:func:`repro.algorithms.graph_adapters.worst_fit`).
:func:`tests.oracles.worst_fit_by_name` keeps the name-keyed loop both
modules used to carry. Both must return equal deployments, insertion
order included. Cycles and server powers come from two values each, so
operations tie on cycles and servers tie exactly on budget; XOR
workflows make weighted and raw cycles differ; deployments are inserted
in shuffled order, so "ties keep the pending order" differs from "ties
keep the workflow order".
"""

import random

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.cost import CostModel
from repro.core.mapping import Deployment
from repro.core.workflow import NodeKind, Operation, Workflow
from repro.experiments.failover import replace_orphans
from repro.experiments.incremental import patch_deployment
from repro.network.topology import bus_network, remove_server
from repro.workloads.generator import (
    GraphStructure,
    line_workflow,
    random_graph_workflow,
)
from tests.oracles import worst_fit_by_name

sizes = st.integers(min_value=1, max_value=16)
server_counts = st.integers(min_value=2, max_value=5)
seeds = st.integers(min_value=0, max_value=10_000)
structures = st.sampled_from([None] + list(GraphStructure))
probability_settings = st.sampled_from([None, True, False])


def tied_instance(size, servers, seed, structure):
    rng = random.Random(seed)
    if structure is None:
        workflow = line_workflow(size, seed=seed)
    else:
        workflow = random_graph_workflow(size, structure, seed=seed)
    tied_workflow = Workflow(workflow.name)
    tied_workflow.add_operations(
        operation.with_cycles(rng.choice([10e6, 20e6]))
        for operation in workflow.operations
    )
    for message in workflow.messages:
        tied_workflow.add_transition(message)
    network = bus_network([rng.choice([1e9, 2e9]) for _ in range(servers)], 1e6)
    return tied_workflow, network, rng


def shuffled_deployment(operations, server_names, rng) -> Deployment:
    operations = list(operations)
    rng.shuffle(operations)
    return Deployment({op: rng.choice(server_names) for op in operations})


@given(
    size=sizes,
    servers=server_counts,
    seed=seeds,
    structure=structures,
    use_probabilities=probability_settings,
)
@settings(max_examples=150, deadline=None)
def test_replace_orphans_matches_the_name_keyed_fill(
    size, servers, seed, structure, use_probabilities
):
    workflow, network, rng = tied_instance(size, servers, seed, structure)
    deployment = shuffled_deployment(
        workflow.operation_names, network.server_names, rng
    )
    failed = rng.choice(network.server_names)
    # an orphan outside the workflow is skipped
    deployment.assign("STRAY", failed)
    survivor = remove_server(network, failed)
    model = CostModel(workflow, survivor, use_probabilities=use_probabilities)
    recovered = replace_orphans(
        workflow, survivor, deployment, failed, cost_model=model
    )
    kept = Deployment({op: s for op, s in deployment if s != failed})
    expected = worst_fit_by_name(model, kept, deployment.operations_on(failed))
    assert list(recovered) == list(expected)
    assert "STRAY" not in recovered


@given(
    size=sizes,
    servers=server_counts,
    seed=seeds,
    structure=structures,
    use_probabilities=probability_settings,
    added=st.integers(min_value=0, max_value=3),
)
@settings(max_examples=150, deadline=None)
def test_patch_deployment_matches_the_name_keyed_fill(
    size, servers, seed, structure, use_probabilities, added
):
    workflow, network, rng = tied_instance(size, servers, seed, structure)
    grown = workflow.copy(f"{workflow.name}-grown")
    hosts = [op.name for op in workflow if op.kind is not NodeKind.XOR_SPLIT]
    for i in range(added):
        grown.add_operation(Operation(f"NEW{i}", rng.choice([10e6, 20e6])))
        grown.connect(rng.choice(hosts), f"NEW{i}", 1_000)
    # kept assignments to a server outside the network feed no budget;
    # assignments of operations no longer in the workflow are dropped
    old = shuffled_deployment(
        workflow.operation_names + ("GONE",),
        network.server_names + ("GHOST",),
        rng,
    )
    model = CostModel(grown, network, use_probabilities=use_probabilities)
    patched = patch_deployment(grown, network, old, cost_model=model)
    kept = Deployment({op: s for op, s in old if op in grown})
    additions = [op for op in grown.operation_names if op not in kept]
    assert list(patched) == list(worst_fit_by_name(model, kept, additions))
