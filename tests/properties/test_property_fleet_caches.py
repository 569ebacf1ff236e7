"""Property test: every fleet cache equals a fresh compile after any event.

The fleet keeps each tenant's compiled workflow across server changes
(rebinding it to the new network and router) and keeps one route table
per router, which every tenant borrows and link events rewrite in
place. Random sequences of admissions, departures, server failures and
joins, region outages, capacity and workload drifts, ticks, link
degrades and link failures are driven through
:class:`~repro.service.controller.FleetController` on a heterogeneous
full mesh (so degrades leave size-dependent pairs), a sparse random
network with mixed 10M/100M/1G links, the bundled Abilene backbone
(sparse, multi-hop, heterogeneous propagation), whose servers fall into
two regions, or a seeded three-region geo fleet (complete, with
jittered backbone latencies that may make relaying through a third
region faster). Failures and outages are drawn without regard to
connectivity, so some would split the fleet and must be refused. After
*every* event every tenant must be completely placed on live servers,
every slot the fleet router's route table has filled, the rows it
keeps, the routes ``path()`` rebuilds from them and every per-size
path it stores must equal a fresh router's over a copy of the
network, and each tenant's artifact
must equal, field for field, a fresh ``CompiledInstance`` on such a
router:

* the workflow arrays, index maps, ``tproc`` and ``ideal_cycles``;
* the batch kernel's dense ``base``/``rate`` matrices and every cached
  per-size delay matrix, and the tenant's batch scores on random rows;
* the tenant's cached fleet price (execution time and loads), float for
  float, and the fleet's combined loads as the admission-order sum of
  the fresh loads;

and all tenants must share (``is``) the current router's route table,
their evaluators reading its per-size matrices and no stale copies.
"""

import copy
import random

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.clock import StepClock
from repro.core.compiled import CompiledInstance
from repro.network import apsp
from repro.network.routing import Router
from repro.network.topology import Server, ServerNetwork, random_network
from repro.scenarios.loader import abilene_network
from repro.scenarios.geo import random_geo_network, region_of
from repro.service.controller import FleetConfig, FleetController
from repro.service.events import (
    CapacityDrift,
    DeployRequest,
    LinkDegrade,
    LinkFailure,
    RegionOutage,
    ServerFailed,
    ServerJoined,
    Tick,
    UndeployRequest,
    WorkloadDrift,
)
from repro.service.scenarios import drift_workflow
from repro.workloads.generator import (
    GraphStructure,
    line_workflow,
    random_graph_workflow,
)

#: Arrays every compiled instance exposes, compared by value.
FIELDS = (
    "op_names",
    "op_index",
    "order",
    "exits",
    "node_prob",
    "wcycles",
    "incoming",
    "xor_weight_total",
    "server_names",
    "server_index",
    "power",
    "tproc",
    "ideal_cycles",
)

KINDS = (
    "deploy",
    "undeploy",
    "fail",
    "join",
    "region-outage",
    "capacity",
    "workload",
    "tick",
    "degrade",
    "improve",
    "link-failure",
)

steps = st.lists(
    st.tuples(
        st.sampled_from(KINDS),
        st.integers(min_value=0, max_value=10_000),
        st.sampled_from((0.25, 0.5, 2.0)),
    ),
    min_size=1,
    max_size=8,
)


def mesh(seed):
    """Five servers in two regions, every pair linked at random speeds.

    Names follow the geo factories' ``{region}/{i}`` form, so a region
    outage fails two or three servers at once.
    """
    rng = random.Random(seed)
    network = ServerNetwork("mesh")
    names = [f"r{i % 2}/{i}" for i in range(1, 6)]
    network.add_servers([Server(name, rng.uniform(1e9, 4e9)) for name in names])
    for i, a in enumerate(names):
        for b in names[i + 1 :]:
            network.connect(
                a,
                b,
                rng.choice((1e6, 1e7, 1e8)),
                propagation_s=rng.choice((1e-4, 1e-3, 1e-2)),
            )
    return network


def in_regions(base, name, powers, propagation):
    """*base* with its i-th server renamed ``r{i % 2}/{i}``.

    *powers* gives each server's power in network order and
    *propagation* each link's propagation delay.
    """
    renamed = {
        server.name: f"r{i % 2}/{i}" for i, server in enumerate(base, start=1)
    }
    network = ServerNetwork(name)
    network.add_servers(
        [
            Server(renamed[server.name], power)
            for server, power in zip(base, powers)
        ]
    )
    for link in base.links:
        network.connect(
            renamed[link.a],
            renamed[link.b],
            link.speed_bps,
            propagation_s=propagation(link),
        )
    return network


def sparse(seed):
    """Six servers in two regions on a random spanning tree plus links.

    Built by :func:`repro.network.topology.random_network` with mixed
    10M/100M/1G speeds, then renamed into ``{region}/{i}`` form; a
    server failure here often has no detour and must be refused.
    """
    rng = random.Random(seed)
    base = random_network(
        [rng.uniform(1e9, 4e9) for _ in range(6)],
        (1e7, 1e8, 1e9),
        extra_edge_probability=0.2,
        rng=rng,
    )
    return in_regions(
        base,
        "sparse",
        [server.power_hz for server in base],
        lambda link: rng.choice((1e-4, 1e-3, 1e-2)),
    )


def abilene(seed):
    """The bundled Abilene backbone in two regions, random powers.

    Twelve servers on fifteen links whose distance-derived propagation
    delays differ: sparse and multi-hop, the shape where reusing the
    prices of tenants whose routes did not move matters most.
    """
    rng = random.Random(seed)
    base = abilene_network()
    return in_regions(
        base,
        "abilene",
        [rng.uniform(1e9, 4e9) for _ in base],
        lambda link: link.propagation_s,
    )


def geo(seed):
    """Three cloud regions of two servers from the seeded geo factory.

    A complete graph of 10G LANs and 1G backbone links whose jittered
    latencies can break the triangle inequality, so some pairs relay
    through a third region; an outage fails a whole region.
    """
    return random_geo_network(3, servers_per_region=2, seed=seed)


TOPOLOGIES = {"abilene": abilene, "geo": geo, "mesh": mesh, "sparse": sparse}


def workflow_for(index, seed):
    if index % 2:
        return random_graph_workflow(
            7, GraphStructure.HYBRID, seed=seed + index
        )
    return line_workflow(5, seed=seed + index)


def next_event(state, kind, pick, scale, seed, counter):
    """The event *kind* asks for, or ``None`` when it cannot apply."""
    network = state.network
    names = network.server_names
    tenants = state.tenants
    if kind == "deploy":
        return DeployRequest(f"t{counter}", workflow_for(counter, seed))
    if kind == "undeploy":
        if len(tenants) <= 1:
            return None
        return UndeployRequest(tenants[pick % len(tenants)])
    if kind == "fail":
        if len(names) <= 3:
            return None
        return ServerFailed(names[pick % len(names)])
    if kind == "join":
        return ServerJoined(f"J{counter}", 1e9 * (1 + pick % 3), 1e7 * scale)
    if kind == "region-outage":
        regions = sorted({region_of(name) for name in names})
        return RegionOutage(regions[pick % len(regions)])
    if kind == "tick":
        return Tick()
    if kind == "capacity":
        return CapacityDrift(names[pick % len(names)], 1e9 * scale + pick)
    if kind == "workload":
        if not tenants:
            return None
        tenant = tenants[pick % len(tenants)]
        drifted = drift_workflow(
            state.tenant(tenant).workflow, random.Random(pick), 0.5
        )
        return WorkloadDrift(tenant, drifted)
    if not network.links:
        return None  # an outage can leave a single server
    link = network.links[pick % len(network.links)]
    if kind == "link-failure":
        return LinkFailure(link.a, link.b)
    factor = scale if kind == "degrade" else 1.0 / scale
    return LinkDegrade(link.a, link.b, factor, 1.0 / factor)


def assert_placed(state):
    """Every tenant is completely placed on servers still in the fleet."""
    live = set(state.network.server_names)
    for tenant in state.tenants:
        record = state.tenant(tenant)
        assert record.deployment.is_complete(record.workflow), tenant
        assert set(dict(record.deployment).values()) <= live, tenant


def assert_routes_fresh(state):
    """The router's slots, rows, routes and per-size paths are fresh.

    Every filled slot, every filled source's rows, a size-independent
    pair's ``path()`` and every per-size path equal a fresh router's
    over a copy of the network.
    """
    router = state.router
    table = router.route_table()
    reference = Router(copy.deepcopy(state.network))
    reference.compile_all_pairs()
    names = router.server_names
    for i, row in enumerate(table):
        for j, coeff in enumerate(row):
            if coeff is not None:
                assert coeff == reference.resolve(i, j), (i, j)
            if coeff and i != j:
                assert router.path(names[i], names[j]) == reference.path(
                    names[i], names[j]
                ), (i, j)
    for source, rows in router._rows.items():
        assert rows == reference._rows[source], source
    graph = reference._compiled_graph()
    for (i, j, size), path in router._sized.items():
        forward, backward = (
            apsp.shortest_sized_path(graph, x, y, size)
            for x, y in ((i, j), (j, i))
        )
        assert path in (forward, backward[::-1]), (i, j, size)


def assert_coherent(state, rng):
    assert_placed(state)
    assert_routes_fresh(state)
    table = state.router.route_table()
    fresh_loads = []
    for tenant in state.tenants:
        compiled = state.cost_model(tenant).compiled
        assert compiled.routes is table, tenant
        fresh = CompiledInstance(
            compiled.workflow,
            state.network,
            objective=compiled.objective,
            router=Router(copy.deepcopy(state.network)),
        )
        for name in FIELDS:
            assert getattr(compiled, name) == getattr(fresh, name), (
                tenant,
                name,
            )
        # the price the fleet serves (the controller priced every
        # tenant for its log record) against the fresh instance
        vector = fresh.server_vector(state.tenant(tenant).deployment)
        price = state.price(tenant)
        execution = fresh.execution_from(fresh.forward_pass(vector))
        assert price.execution_time.hex() == execution.hex(), tenant
        loads = tuple(fresh.load_values(vector))
        assert [v.hex() for v in price.loads] == [v.hex() for v in loads], tenant
        fresh_loads.append(loads)
        evaluator = compiled.batch_evaluator()
        dense = evaluator.routes
        want = fresh.batch_evaluator().routes
        assert np.array_equal(dense.base, want.base), tenant
        assert np.array_equal(dense.rate, want.rate), tenant
        assert dense.sized_pairs == want.sized_pairs, tenant
        for size_bits, matrix in dense.matrices.items():
            assert np.array_equal(matrix, want.matrix(size_bits)), (
                tenant,
                size_bits,
            )
        for op, edges in enumerate(evaluator._incoming):
            for (_src, matrix), (_peer, size_bits, _w) in zip(
                edges, compiled.incoming[op]
            ):
                assert matrix is dense.matrices[size_bits], (tenant, op)
        rows = [
            [rng.randrange(compiled.num_servers) for _ in compiled.op_names]
            for _ in range(8)
        ]
        got = evaluator.evaluate(rows).objective
        want_scores = fresh.batch_evaluator().evaluate(rows).objective
        assert np.array_equal(got, want_scores), tenant
    totals = [0.0] * len(state.network)
    for loads in fresh_loads:  # admission order
        totals = [total + load for total, load in zip(totals, loads)]
    combined = state.combined_loads()
    assert list(combined) == list(state.network.server_names)
    assert [v.hex() for v in combined.values()] == [v.hex() for v in totals]


@settings(max_examples=25, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=10_000),
    topology=st.sampled_from(sorted(TOPOLOGIES)),
    events=steps,
)
def test_every_event_keeps_every_cache_fresh(seed, topology, events):
    controller = FleetController(
        TOPOLOGIES[topology](seed),
        config=FleetConfig(drift_threshold=0.0, max_moves_per_rebalance=2),
        clock=StepClock(),
    )
    state = controller.state
    for index in range(2):
        controller.handle(DeployRequest(f"t{index}", workflow_for(index, seed)))
    rng = random.Random(seed)
    assert_coherent(state, rng)
    for counter, (kind, pick, scale) in enumerate(events, start=2):
        event = next_event(state, kind, pick, scale, seed, counter)
        if event is None:
            continue
        controller.handle(event)
        assert_coherent(state, rng)
