"""Property tests: heterogeneous routing parity and route invalidation.

The frozen-oracle contract of the real-topology layer:

* **Four-way parity** -- ``CostModel.evaluate``,
  ``MoveEvaluator.propose``, ``CompiledInstance.components`` and the
  ``BatchEvaluator`` kernel price the same mapping identically (within
  ``1e-9``) on genuinely heterogeneous, multi-hop networks: the bundled
  Abilene backbone, seeded geo-region fleets, and parsed SNDlib-style
  topologies. All four consume the one shared
  ``CompiledInstance.routes`` table, so any drift between them means
  someone grew a private routing model.
* **Invalidation equals recompilation** -- after an in-place link
  change (degrade/upgrade/removal), ``invalidate_routes()`` must make
  the existing compiled instance price every mapping exactly like a
  fresh ``CompiledInstance`` built from the modified network; and on an
  *unchanged* network it must be a perfect no-op.
"""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.compiled import PENALTY_MODES, CompiledInstance
from repro.core.cost import CostModel
from repro.core.incremental import MoveEvaluator
from repro.core.mapping import Deployment
from repro.exceptions import DeploymentError
from repro.network.topology import Link, Server
from repro.scenarios import abilene_network, parse_topology, random_geo_network
from repro.workloads.generator import (
    GraphStructure,
    line_workflow,
    random_graph_workflow,
)

TOLERANCE = 1e-9

sizes = st.integers(min_value=2, max_value=14)
seeds = st.integers(min_value=0, max_value=10_000)
structures = st.sampled_from([None, GraphStructure.HYBRID])
modes = st.sampled_from(PENALTY_MODES)

TRIANGLE = """
NODES (
  A ( -74.0 40.7 )
  B ( -87.6 41.9 )
  C ( -118.2 34.1 )
)
LINKS (
  L1 ( A B ) 100.0
  L2 ( B C ) 20.0
  L3 ( C A ) 5.0 40.0
)
"""


def make_workflow(size, seed, structure):
    if structure is None:
        return line_workflow(size, seed=seed)
    return random_graph_workflow(size, structure, seed=seed)


def make_network(kind, seed):
    if kind == "abilene":
        network = abilene_network()
        rng = random.Random(seed)
        for name in network.server_names:
            network.replace_server(Server(name, rng.uniform(1e9, 4e9)))
        return network
    if kind == "geo":
        return random_geo_network(3, servers_per_region=2, seed=seed)
    return parse_topology(TRIANGLE, name="triangle")


def random_rows(rng, operations, servers, count):
    return [
        [rng.randrange(len(servers)) for _ in operations]
        for _ in range(count)
    ]


@given(
    size=sizes,
    seed=seeds,
    structure=structures,
    mode=modes,
    kind=st.sampled_from(["abilene", "geo", "sndlib"]),
)
@settings(max_examples=30, deadline=None)
def test_four_way_parity_on_heterogeneous_networks(
    size, seed, structure, mode, kind
):
    workflow = make_workflow(size, seed, structure)
    network = make_network(kind, seed)
    model = CostModel(workflow, network, penalty_mode=mode)
    compiled = model.compiled
    batch = compiled.batch_evaluator()
    rng = random.Random(seed + 7)
    servers = network.server_names
    rows = random_rows(rng, compiled.op_names, servers, 4)
    scores = batch.evaluate(rows).objective
    for row, score in zip(rows, scores):
        genome = tuple(servers[index] for index in row)
        deployment = Deployment(
            dict(zip(compiled.op_names, genome))
        )
        oracle = model.evaluate(deployment)
        # batch kernel vs full model
        assert abs(score - oracle.objective) <= TOLERANCE
        # full-mapping components vs full model
        execution, penalty, objective = compiled.components(list(row))
        assert abs(execution - oracle.execution_time) <= TOLERANCE
        assert abs(penalty - oracle.time_penalty) <= TOLERANCE
        assert abs(objective - oracle.objective) <= TOLERANCE
        # move evaluator vs full model: re-price one random move
        evaluator = MoveEvaluator(model, deployment.copy())
        operation = rng.choice(compiled.op_names)
        target = rng.choice(servers)
        outcome = evaluator.propose(operation, target)
        trial = deployment.copy()
        trial.assign(operation, target)
        trial_cost = model.evaluate(trial)
        assert abs(outcome.objective - trial_cost.objective) <= TOLERANCE


@given(size=sizes, seed=seeds, mode=modes)
@settings(max_examples=25, deadline=None)
def test_invalidate_routes_equals_fresh_recompile(size, seed, mode):
    workflow = make_workflow(size, seed, None)
    network = make_network("abilene", seed)
    compiled = CompiledInstance(workflow, network, penalty_mode=mode)
    rng = random.Random(seed + 11)
    rows = random_rows(
        rng, compiled.op_names, network.server_names, 3
    )
    # warm the lazy route table so stale state would actually bite
    for row in rows:
        compiled.components(row)
    # in-place link change: degrade one trunk, upgrade another
    link = rng.choice(network.links)
    network.replace_link(
        Link(link.a, link.b, link.speed_bps * 0.1, link.propagation_s * 2)
    )
    other = rng.choice(network.links)
    network.replace_link(
        Link(other.a, other.b, other.speed_bps * 4, other.propagation_s)
    )
    compiled.invalidate_routes()
    fresh = CompiledInstance(workflow, network, penalty_mode=mode)
    for row in rows:
        assert compiled.components(row) == fresh.components(row)
        assert compiled.forward_pass(row) == fresh.forward_pass(row)


@given(size=sizes, seed=seeds, mode=modes)
@settings(max_examples=25, deadline=None)
def test_invalidate_routes_is_noop_on_unchanged_network(size, seed, mode):
    workflow = make_workflow(size, seed, GraphStructure.HYBRID)
    network = random_geo_network(2, servers_per_region=2, seed=seed)
    compiled = CompiledInstance(workflow, network, penalty_mode=mode)
    rng = random.Random(seed + 13)
    rows = random_rows(
        rng, compiled.op_names, network.server_names, 3
    )
    before = [compiled.components(row) for row in rows]
    compiled.invalidate_routes()
    after = [compiled.components(row) for row in rows]
    assert before == after  # byte-identical, not merely close


def test_invalidate_routes_rejects_server_set_changes():
    workflow = line_workflow(4, seed=0)
    network = random_geo_network(2, servers_per_region=2, seed=0)
    compiled = CompiledInstance(workflow, network)
    network.add_server(Server("late/1", 1e9))
    with pytest.raises(DeploymentError, match="recompile"):
        compiled.invalidate_routes()
