"""Property tests: the greedy heuristics decide as their name-keyed oracles.

Fair Load, FLTR, FLTR2, FLMME and HOLM run on operation and server
indices over the compiled IR. :mod:`tests.oracles` keeps their
name-keyed bodies -- ``Workflow.predecessors``/``successors``, dicts of
weights, a name-keyed mapping. Both must return equal placements and
leave the RNG in the same state, on line and random-graph workflows
with every probability setting, on bus, line and random networks, and
on a single server.
"""

import dataclasses
import random

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.algorithms.fair_load import FairLoad
from repro.algorithms.heavy_ops import HeavyOpsLargeMsgs
from repro.algorithms.merge_messages import FairLoadMergeMessages
from repro.algorithms.tie_resolver import FairLoadTieResolver, FairLoadTieResolver2
from repro.core.cost import CostModel
from repro.core.workflow import Workflow
from repro.network.topology import random_network
from repro.workloads.generator import (
    GraphStructure,
    line_workflow,
    random_bus_network,
    random_graph_workflow,
    random_line_network,
)
from tests.oracles import (
    NameKeyedFairLoad,
    NameKeyedHeavyOps,
    NameKeyedMergeMessages,
    NameKeyedTieResolver,
    NameKeyedTieResolver2,
)

#: (index-space algorithm, name-keyed oracle, takes random_start)
PAIRS = (
    (FairLoad, NameKeyedFairLoad, False),
    (FairLoadTieResolver, NameKeyedTieResolver, True),
    (FairLoadTieResolver2, NameKeyedTieResolver2, True),
    (FairLoadMergeMessages, NameKeyedMergeMessages, True),
    (HeavyOpsLargeMsgs, NameKeyedHeavyOps, False),
)

sizes = st.integers(min_value=1, max_value=20)
server_counts = st.integers(min_value=1, max_value=6)
seeds = st.integers(min_value=0, max_value=10_000)
structures = st.sampled_from([None] + list(GraphStructure))
probability_settings = st.sampled_from([None, True, False])
topologies = st.sampled_from(["bus", "line", "random"])


def make_workflow(size, seed, structure, tied):
    if structure is None:
        workflow = line_workflow(size, seed=seed)
    else:
        workflow = random_graph_workflow(size, structure, seed=seed)
    if tied:
        # two cycle values only: the tie resolvers see long runs of ties,
        # and message sizes 1 and 1e16, whose sums depend on the order
        # they are added in (1e16 + 1 + 1 == 1e16, 1 + 1 + 1e16 > 1e16)
        rng = random.Random(seed)
        tied_workflow = Workflow(workflow.name)
        tied_workflow.add_operations(
            operation.with_cycles(10e6 if i % 3 else 20e6)
            for i, operation in enumerate(workflow.operations)
        )
        for message in workflow.messages:
            tied_workflow.add_transition(
                dataclasses.replace(message, size_bits=rng.choice([1.0, 1e16]))
            )
        workflow = tied_workflow
    return workflow


def make_network(kind, servers, seed):
    if kind == "bus":
        return random_bus_network(servers, seed=seed)
    if kind == "line":
        return random_line_network(servers, seed=seed)
    rng = random.Random(seed)
    return random_network(
        [rng.choice([1e9, 2e9]) for _ in range(servers)],
        [1e6, 10e6, 100e6],
        rng=rng,
        propagation_s=rng.choice([0.0, 1e-3]),
    )


@given(
    size=sizes,
    servers=server_counts,
    seed=seeds,
    structure=structures,
    use_probabilities=probability_settings,
    topology=topologies,
    tied=st.booleans(),
    random_start=st.booleans(),
)
@settings(max_examples=80, deadline=None)
def test_index_space_heuristics_match_name_keyed_oracles(
    size, servers, seed, structure, use_probabilities, topology, tied, random_start
):
    workflow = make_workflow(size, seed, structure, tied)
    network = make_network(topology, servers, seed + 1)
    model = CostModel(workflow, network, use_probabilities=use_probabilities)
    for algorithm_cls, oracle_cls, has_start in PAIRS:
        options = {"random_start": random_start} if has_start else {}
        rng = random.Random(seed)
        rng_oracle = random.Random(seed)
        placed = algorithm_cls(**options).deploy(
            workflow, network, cost_model=model, rng=rng
        )
        expected = oracle_cls(**options).deploy(
            workflow, network, cost_model=model, rng=rng_oracle
        )
        assert placed.as_dict() == expected.as_dict(), algorithm_cls.name
        # the same assignment order, not just the same assignments
        assert list(placed.as_dict()) == list(expected.as_dict())
        assert rng.getstate() == rng_oracle.getstate(), algorithm_cls.name
