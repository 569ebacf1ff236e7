"""Coherence of the fleet's cached per-tenant prices.

:meth:`FleetState.price <repro.service.state.FleetState.price>` serves a
tenant's execution time and loads from a cache keyed by the identity of
its cost model and deployment and the deployment's stamp. After *every*
event of the builtin scenarios -- admissions, failures, joins, drifts,
capacity changes, link failures and degrades, region outages,
rebalances -- the served prices and the snapshot built from them must
equal an uncached recompute bit for bit. Link events keep every cost
model but rewrite its route table and drop only the prices whose routes
moved, so a missed drop would serve a stale execution time; this suite
is what catches that.
"""

import pytest

from repro.core.clock import StepClock
from repro.core.compiled import penalty_statistic
from repro.service.controller import FleetController
from repro.service.scenarios import build_scenario
from repro.service.state import FleetSnapshot, jain_index


def bits(loads):
    """A mapping's items with every float as its exact bit pattern."""
    return [(server, value.hex()) for server, value in loads.items()]


def uncached_snapshot(state):
    """The snapshot recomputed through the cost models, no price cache."""
    loads = {name: 0.0 for name in state.network.server_names}
    executions = []
    for tenant in state.tenants:
        model = state.cost_model(tenant)
        deployment = state.tenant(tenant).deployment
        for server, load in model.loads(deployment).items():
            loads[server] += load
        executions.append(model.execution_time(deployment))
    execution = max(executions, default=0.0)
    penalty = penalty_statistic(list(loads.values()), state.penalty_mode)
    return FleetSnapshot(
        execution_time=execution,
        time_penalty=penalty,
        objective=state.objective_value(execution, penalty),
        loads=loads,
        balance_index=jain_index(loads),
        tenants=len(state),
    )


@pytest.mark.parametrize(
    "name", ["surge", "drift", "abilene", "geo", "diurnal"]
)
def test_prices_match_an_uncached_recompute_after_every_event(name):
    scenario = build_scenario(name, seed=3)
    controller = FleetController(
        scenario.network, config=scenario.config, clock=StepClock()
    )
    state = controller.state
    for position, event in enumerate(scenario.events):
        controller.handle(event)
        where = f"{name} event {position} ({event.kind})"
        for tenant in state.tenants:
            # handle() already priced every tenant for its log record,
            # so this read is served from the cache
            price = state.price(tenant)
            model = state.cost_model(tenant)
            deployment = state.tenant(tenant).deployment
            fresh = model.execution_time(deployment)
            assert price.execution_time.hex() == fresh.hex(), where
            loads = dict(zip(state.network.server_names, price.loads))
            assert bits(loads) == bits(model.loads(deployment)), where
        expected = uncached_snapshot(state)
        snapshot = state.snapshot()
        assert bits(snapshot.loads) == bits(expected.loads), where
        assert snapshot == expected, where
    assert len(state) > 0
