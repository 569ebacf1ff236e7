"""Property test: fleet route caches equal a fresh build after link events.

The fleet keeps every tenant's :class:`~repro.core.compiled.CompiledInstance`
across link events and refreshes its route-derived state in place: one
shared :meth:`Router.invalidate <repro.network.routing.Router.invalidate>`
(re-running only the passes a changed link could alter), then each
tenant's ``refresh_routes``. Random sequences of link failures, degrades
of every polarity (worsening, improving, speed-only, propagation-only
and the two mixed ones) and ticks
are driven through :class:`~repro.service.controller.FleetController` on
the Abilene backbone, a seeded geo fleet and a five-server net with
three Pareto-optimal A-B routes (a migration checkpoint's optimum rides
the middle route, on neither classification path). After *every* event
each tenant's cached artifact must equal, bit for bit, a fresh
``CompiledInstance`` on a fresh router over a copy of the network (a
copy has its own snapshot, so a missed generation bump cannot feed the
reference the fleet's stale one):

* the resolved route slot of every server pair
  (:func:`tests.oracles.route_coefficients`);
* ``migration_table`` (one tenant is transition-aware, so rows exist);
* ``batch_evaluator().evaluate(rows)`` -- the warmed dense delay
  matrices -- on seeded random rows plus the live placement.
"""

import copy
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.clock import StepClock
from repro.core.compiled import CompiledInstance
from repro.core.cost import CostModel
from repro.core.migration import MigrationCostModel, TransitionObjective
from repro.network.routing import Router
from repro.network.topology import Server, ServerNetwork
from repro.scenarios import abilene_network, random_geo_network
from repro.service.controller import FleetConfig, FleetController
from repro.service.events import DeployRequest, LinkDegrade, LinkFailure, Tick
from repro.workloads.generator import (
    GraphStructure,
    line_workflow,
    random_graph_workflow,
)
from tests.oracles import route_coefficients

MIGRATION = MigrationCostModel(
    state_bits_per_cycle=0.1, state_bits_base=2e6, downtime_s=0.1
)

#: ``kind -> (speed_factor, propagation_factor)`` as functions of a
#: drawn scale in (0, 1): every degrade polarity the refresh must handle.
DEGRADES = {
    "worse": lambda s: (s, 1.0 / s),
    "better": lambda s: (1.0 / s, s),
    "speed-worse": lambda s: (s, 1.0),
    "speed-better": lambda s: (1.0 / s, 1.0),
    "prop-worse": lambda s: (1.0, 1.0 / s),
    "prop-better": lambda s: (1.0, s),
    "faster-laggier": lambda s: (1.0 / s, 1.0 / s),
    "slower-snappier": lambda s: (s, s),
}

steps = st.lists(
    st.tuples(
        st.sampled_from(("fail", "tick", *DEGRADES)),
        st.integers(min_value=0, max_value=10_000),
        st.sampled_from((0.25, 0.5, 0.8)),
    ),
    min_size=1,
    max_size=8,
)


def make_network(kind, seed):
    if kind == "abilene":
        network = abilene_network()
        rng = random.Random(seed)
        for name in network.server_names:
            network.replace_server(Server(name, rng.uniform(1e9, 4e9)))
        return network
    if kind == "geo":
        return random_geo_network(3, servers_per_region=2, seed=seed)
    # A-x-B: least propagation, A-y-B: least transfer, A-z-B: the
    # optimum for mid-size messages such as migration checkpoints
    network = ServerNetwork("pareto")
    network.add_servers(
        [Server(name, 1e9) for name in ("A", "x", "y", "z", "B")]
    )
    for hop, speed, propagation in (
        ("x", 1e6, 0.5),
        ("y", 1e9, 5.0),
        ("z", 4e6, 2.0),
    ):
        network.connect("A", hop, speed, propagation_s=propagation)
        network.connect(hop, "B", speed, propagation_s=propagation)
    return network


def start_fleet(kind, seed):
    """Three tenants, the last one transition-aware, caches warmed."""
    controller = FleetController(
        make_network(kind, seed),
        config=FleetConfig(
            drift_threshold=0.0,
            max_moves_per_rebalance=2,
            migration=MIGRATION,
            migration_weight=0.01,
        ),
        clock=StepClock(),
    )
    workflows = {
        "line": line_workflow(6, seed=seed),
        "hybrid": random_graph_workflow(
            8, GraphStructure.HYBRID, seed=seed + 1
        ),
        "aware": line_workflow(5, seed=seed + 2),
    }
    for tenant, workflow in workflows.items():
        record = controller.handle(DeployRequest(tenant, workflow))
        assert record.action == "admitted"
    # re-register the last tenant with a transition-aware cost model on
    # the shared router, anchored at its admitted placement
    state = controller.state
    record = state.remove_tenant("aware")
    objective = TransitionObjective(
        execution_weight=state.execution_weight,
        penalty_weight=state.penalty_weight,
        penalty_mode=state.penalty_mode,
        migration_weight=0.01,
        migration=MIGRATION,
        baseline=record.deployment,
    )
    state.add_tenant(
        "aware",
        record.workflow,
        record.deployment,
        cost_model=CostModel(
            record.workflow,
            state.network,
            router=state.router,
            objective=objective,
        ),
    )
    return controller


def assert_coherent(state, models, rng):
    for tenant in state.tenants:
        model = state.cost_model(tenant)
        assert model is models[tenant]  # link events keep the artifact
        compiled = model.compiled
        fresh = CompiledInstance(
            compiled.workflow,
            state.network,
            objective=compiled.objective,
            router=Router(copy.deepcopy(state.network)),
        )
        servers = range(compiled.num_servers)
        for i in servers:
            for j in servers:
                assert route_coefficients(compiled, i, j) == route_coefficients(
                    fresh, i, j
                ), (tenant, i, j)
        assert compiled.migration_table == fresh.migration_table, tenant
        rows = [compiled.server_vector(state.tenant(tenant).deployment)]
        rows += [
            [rng.randrange(compiled.num_servers) for _ in compiled.op_names]
            for _ in range(12)
        ]
        got = compiled.batch_evaluator().evaluate(rows)
        want = fresh.batch_evaluator().evaluate(rows)
        for field in ("execution", "penalty", "objective", "migration"):
            mine, theirs = getattr(got, field), getattr(want, field)
            if theirs is None:
                assert mine is None, (tenant, field)
            else:
                assert np.array_equal(mine, theirs), (tenant, field)


@pytest.mark.parametrize("kind", ["abilene", "geo", "pareto"])
@settings(max_examples=15, deadline=None)
@given(seed=st.integers(min_value=0, max_value=10_000), events=steps)
def test_link_events_keep_every_cache_fresh(kind, seed, events):
    controller = start_fleet(kind, seed)
    state = controller.state
    models = {tenant: state.cost_model(tenant) for tenant in state.tenants}
    assert models["aware"].compiled.migration_table is not None
    rng = random.Random(seed)
    assert_coherent(state, models, rng)  # also warms every cache
    for event_kind, pick, scale in events:
        if event_kind == "tick":
            event = Tick()
        else:
            links = state.network.links
            link = links[pick % len(links)]
            if event_kind == "fail":
                event = LinkFailure(link.a, link.b)
            else:
                event = LinkDegrade(
                    link.a, link.b, *DEGRADES[event_kind](scale)
                )
        controller.handle(event)
        assert_coherent(state, models, rng)
