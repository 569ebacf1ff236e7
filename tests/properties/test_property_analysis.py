"""Property-based tests: analysis tools over generated workflows."""

import random

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.analysis import (
    critical_path,
    extract_region,
    region_tree,
    workflow_statistics,
)
from repro.core.cost import CostModel
from repro.core.mapping import Deployment
from repro.core.validation import check_well_formed
from repro.workloads.generator import (
    GraphStructure,
    random_bus_network,
    random_graph_workflow,
)

sizes = st.integers(min_value=1, max_value=25)
seeds = st.integers(min_value=0, max_value=10_000)
structures = st.sampled_from(list(GraphStructure))


@given(size=sizes, seed=seeds, structure=structures)
@settings(max_examples=40, deadline=None)
def test_region_tree_counts_every_split(size, seed, structure):
    workflow = random_graph_workflow(size, structure, seed=seed)
    splits = sum(1 for op in workflow if op.kind.is_split)
    tree = region_tree(workflow)
    assert tree.count() == splits
    assert tree.depth() <= max(splits, 0)


@given(size=st.integers(min_value=4, max_value=25), seed=seeds)
@settings(max_examples=25, deadline=None)
def test_every_region_extracts_to_a_well_formed_workflow(size, seed):
    workflow = random_graph_workflow(size, GraphStructure.BUSHY, seed=seed)
    report = check_well_formed(workflow)
    for split, join in report.matches.items():
        region = extract_region(workflow, split)
        assert region.entries == (split,)
        assert region.exits == (join,)
        sub_report = check_well_formed(region)
        assert sub_report.ok, sub_report.problems
        # nested structure carried over intact
        assert set(sub_report.matches.items()) <= set(
            report.matches.items()
        )


@given(size=sizes, seed=seeds, structure=structures)
@settings(max_examples=30, deadline=None)
def test_statistics_are_internally_consistent(size, seed, structure):
    workflow = random_graph_workflow(size, structure, seed=seed)
    stats = workflow_statistics(workflow)
    assert stats["operations"] == len(workflow)
    assert stats["messages"] == len(workflow.messages)
    assert 1 <= stats["depth"] <= len(workflow)
    assert sum(stats["kind_counts"].values()) == len(workflow)
    assert stats["total_cycles"] == workflow.total_cycles


@given(size=sizes, seed=seeds, structure=structures)
@settings(max_examples=25, deadline=None)
def test_critical_path_is_a_real_chain_ending_at_texecute(
    size, seed, structure
):
    workflow = random_graph_workflow(size, structure, seed=seed)
    network = random_bus_network(3, seed=seed + 1)
    model = CostModel(workflow, network)
    deployment = Deployment.random(workflow, network, random.Random(seed))
    path = critical_path(workflow, deployment, model)
    # chain is connected, starts at an entry, ends at an exit
    assert path.operations[0] in workflow.entries
    assert path.operations[-1] in workflow.exits
    for a, b in zip(path.operations, path.operations[1:]):
        assert b in workflow.successors(a)
    assert path.length_s > 0
    assert abs(
        path.length_s - model.execution_time(deployment)
    ) <= 1e-12 * max(1.0, path.length_s)
