"""End-to-end fleet lifecycle: deploy, failure, recovery, join, rebalance.

Drives a single :class:`~repro.service.controller.FleetController` through
the full tenancy lifecycle the issue describes: three tenants deployed, a
server killed (orphans must be re-homed onto survivors), a fresh server
joined (opportunistic spreading), and finally a forced drift rebalance that
must improve the fleet objective without moving more operations than the
churn it reports.
"""

import pytest

from repro.core.clock import StepClock
from repro.core.workflow import Operation, Workflow
from repro.network.topology import bus_network
from repro.service.controller import FleetConfig, FleetController
from repro.service.events import (
    DeployRequest,
    ServerFailed,
    ServerJoined,
    Tick,
)


def _line(name, cycles, bits=50_000):
    workflow = Workflow(name)
    previous = None
    for index, value in enumerate(cycles, start=1):
        operation = workflow.add_operation(Operation(f"O{index}", value))
        if previous is not None:
            workflow.connect(previous.name, operation.name, bits)
        previous = operation
    return workflow


@pytest.fixture
def tenants():
    """Three tenants sized like the paper's Table 6 workflows."""
    return {
        "crm": _line("crm", [10e6, 20e6, 30e6, 20e6]),
        "billing": _line("billing", [30e6, 30e6, 10e6]),
        "search": _line("search", [20e6, 10e6, 20e6, 10e6, 20e6]),
    }


def deployments_snapshot(controller):
    """Current ``{tenant: {operation: server}}`` mapping of the fleet."""
    return {
        name: controller.state.tenant(name).deployment.as_dict()
        for name in controller.state.tenants
    }


class TestFleetLifecycle:
    def test_failure_recovery_join_and_rebalance(self, tenants):
        network = bus_network([1e9, 2e9, 2e9, 3e9], 100e6, name="lifecycle")
        config = FleetConfig(drift_threshold=0.0, max_moves_per_rebalance=4)
        controller = FleetController(network, config=config, clock=StepClock())

        # 1. three tenants admitted, every deployment complete
        for tenant, workflow in tenants.items():
            record = controller.handle(DeployRequest(tenant, workflow))
            assert record.action == "admitted", record.to_line()
        assert len(controller.state) == 3

        # 2. kill a server: orphans re-homed, loads stay over survivors only
        record = controller.handle(ServerFailed("S2"))
        assert record.action == "recovered"
        assert int(record.detail("orphans")) > 0
        survivors = set(controller.state.network.server_names)
        assert "S2" not in survivors
        for tenant, workflow in tenants.items():
            deployment = controller.state.tenant(tenant).deployment
            assert deployment.is_complete(workflow)
            assert set(deployment.used_servers()) <= survivors
        loads = controller.state.combined_loads()
        assert set(loads) == survivors
        assert all(load >= 0.0 for load in loads.values())

        # 3. a fresh server joins and is wired into the bus
        record = controller.handle(ServerJoined("S9", 2e9, 100e6))
        assert record.action == "joined"
        assert "S9" in controller.state.network
        assert controller.state.network.is_connected()

        # 4. skew the fleet (a tenant piled onto the slowest server), then a
        #    forced rebalance must improve the objective within its churn
        from repro.core.mapping import Deployment

        batch = _line("batch", [25e6, 25e6, 25e6])
        controller.state.add_tenant(
            "batch", batch, Deployment.all_on_one(batch, "S1")
        )
        before = deployments_snapshot(controller)
        objective_before = controller.state.snapshot().objective
        record = controller.handle(Tick())
        assert record.action == "rebalanced"
        churn = int(record.detail("churn"))
        assert 1 <= churn <= config.max_moves_per_rebalance
        after = deployments_snapshot(controller)
        moved = sum(
            1
            for tenant in before
            for operation in before[tenant]
            if before[tenant][operation] != after[tenant][operation]
        )
        assert moved <= churn
        objective_after = controller.state.snapshot().objective
        assert objective_after < objective_before
        # log details carry six decimals, so compare at that precision
        assert float(record.detail("gain")) == pytest.approx(
            objective_before - objective_after, abs=1e-6
        )

        # the full run is reflected in the metrics snapshot
        metrics = controller.metrics()
        assert metrics.admitted == 3
        assert metrics.failures_recovered == 1
        assert metrics.servers_joined == 1
        assert metrics.rebalances == 1
        assert metrics.tenants_hosted == 4
