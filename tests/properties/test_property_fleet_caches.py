"""Property test: every fleet cache equals a fresh compile after any event.

The fleet keeps each tenant's compiled workflow across server changes
(rebinding it to the new network and router) and keeps one route table
per router, which every tenant borrows and link events refresh in
place. Random sequences of admissions, departures, server failures and
joins, region outages, capacity and workload drifts, ticks, link
degrades and link failures are driven through
:class:`~repro.service.controller.FleetController` on a heterogeneous
full mesh (so degrades leave size-dependent pairs) whose servers fall
into two regions. Failures and outages are drawn without regard to
connectivity, so some would split the fleet and must be refused. After
*every* event every tenant must be completely placed on live servers,
and each tenant's artifact must equal, field for field, a fresh
``CompiledInstance`` on a router over a copy of the network:

* the workflow arrays, index maps, ``tproc`` and ``ideal_cycles``;
* every route-table slot the fleet has resolved;
* the batch kernel's dense ``base``/``rate`` matrices and every cached
  per-size delay matrix, and the tenant's batch scores on random rows;

and all tenants must share (``is``) the current router's route table,
their evaluators reading its per-size matrices and no stale copies.
"""

import copy
import random

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.compiled import CompiledInstance
from repro.network.routing import Router
from repro.network.topology import Server, ServerNetwork
from repro.scenarios.geo import region_of
from repro.service.controller import FleetConfig, FleetController, StepClock
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


def assert_coherent(state, rng):
    assert_placed(state)
    table = state.router.route_table()
    for tenant in state.tenants:
        compiled = state.cost_model(tenant).compiled
        assert compiled.route_table is table, tenant
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
        servers = range(compiled.num_servers)
        for i in servers:
            for j in servers:
                if compiled.routes[i][j] is not None:
                    assert compiled.routes[i][j] == fresh.route_coefficients(
                        i, j
                    ), (tenant, i, j)
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


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(min_value=0, max_value=10_000), events=steps)
def test_every_event_keeps_every_cache_fresh(seed, events):
    controller = FleetController(
        mesh(seed),
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
