"""Unit tests for :class:`repro.service.controller.FleetController`."""

import pytest

from repro.core.clock import StepClock
from repro.exceptions import ServiceError
from repro.service.controller import FleetConfig, FleetController
from repro.service.events import (
    DeployRequest,
    FleetEvent,
    ServerFailed,
    ServerJoined,
    Tick,
    UndeployRequest,
)


def controller_for(network, **overrides):
    """A controller with a deterministic clock and test-friendly config."""
    config = FleetConfig(**overrides)
    return FleetController(network, config=config, clock=StepClock())


def test_tenant_sharding_is_gone():
    # one controller prices every tenant on one fleet: nothing to shard
    with pytest.raises(ImportError):
        from repro.service import ShardRouter  # noqa: F401
    with pytest.raises(ImportError):
        import repro.service.sharding  # noqa: F401


class TestDeploy:
    def test_admits_and_places_completely(
        self, fleet_network, tenant_workflows
    ):
        controller = controller_for(fleet_network)
        record = controller.handle(
            DeployRequest("alpha", tenant_workflows["alpha"])
        )
        assert record.action == "admitted"
        assert record.detail("algorithm") == "HeavyOps-LargeMsgs"
        deployment = controller.state.tenant("alpha").deployment
        assert deployment.is_complete(tenant_workflows["alpha"])

    def test_rejects_duplicate_tenant(self, fleet_network, tenant_workflows):
        controller = controller_for(fleet_network)
        controller.handle(DeployRequest("alpha", tenant_workflows["alpha"]))
        record = controller.handle(
            DeployRequest("alpha", tenant_workflows["beta"])
        )
        assert record.action == "rejected"
        assert record.detail("reason") == "duplicate-tenant"

    def test_rejects_over_capacity(self, fleet_network, tenant_workflows):
        # alpha alone projects 10 ms of mean load on this 6 GHz fleet
        controller = controller_for(
            fleet_network, admission_load_limit_s=0.005
        )
        record = controller.handle(
            DeployRequest("alpha", tenant_workflows["alpha"])
        )
        assert record.action == "rejected"
        assert record.detail("reason") == "capacity"
        assert "alpha" not in controller.state

    def test_per_request_algorithm_override(
        self, fleet_network, tenant_workflows
    ):
        controller = controller_for(fleet_network)
        record = controller.handle(
            DeployRequest(
                "alpha", tenant_workflows["alpha"], algorithm="FairLoad"
            )
        )
        assert record.detail("algorithm") == "FairLoad"


class TestUndeploy:
    def test_removes_hosted_tenant(self, fleet_network, tenant_workflows):
        controller = controller_for(fleet_network)
        controller.handle(DeployRequest("alpha", tenant_workflows["alpha"]))
        record = controller.handle(UndeployRequest("alpha"))
        assert record.action == "removed"
        assert "alpha" not in controller.state

    def test_unknown_tenant_rejected(self, fleet_network):
        controller = controller_for(fleet_network)
        record = controller.handle(UndeployRequest("ghost"))
        assert record.action == "rejected"
        assert record.detail("reason") == "unknown-tenant"


class TestServerFailed:
    def test_orphans_rehomed_onto_survivors(
        self, fleet_network, tenant_workflows
    ):
        controller = controller_for(fleet_network)
        for tenant, workflow in tenant_workflows.items():
            controller.handle(DeployRequest(tenant, workflow))
        victim = "S3"
        record = controller.handle(ServerFailed(victim))
        assert record.action == "recovered"
        assert victim not in controller.state.network
        for tenant, workflow in tenant_workflows.items():
            deployment = controller.state.tenant(tenant).deployment
            assert deployment.is_complete(workflow)
            assert victim not in deployment.used_servers()

    def test_unknown_server_rejected(self, fleet_network):
        controller = controller_for(fleet_network)
        record = controller.handle(ServerFailed("S99"))
        assert record.action == "rejected"
        assert record.detail("reason") == "unknown-server"


class TestServerJoined:
    def test_join_spreads_bounded_moves(
        self, fleet_network, tenant_workflows
    ):
        controller = controller_for(fleet_network, max_moves_per_rebalance=2)
        for tenant, workflow in tenant_workflows.items():
            controller.handle(DeployRequest(tenant, workflow))
        record = controller.handle(ServerJoined("S9", 3e9, 100e6))
        assert record.action == "joined"
        assert "S9" in controller.state.network
        moves = int(record.detail("spread_moves"))
        assert 0 <= moves <= 2
        assert float(record.detail("gain")) >= 0.0

    def test_duplicate_server_rejected(self, fleet_network):
        controller = controller_for(fleet_network)
        record = controller.handle(ServerJoined("S1", 1e9, 1e8))
        assert record.action == "rejected"
        assert record.detail("reason") == "duplicate-server"


class TestTick:
    def test_steady_below_threshold(self, fleet_network, tenant_workflows):
        controller = controller_for(fleet_network, drift_threshold=1.0)
        controller.handle(DeployRequest("alpha", tenant_workflows["alpha"]))
        record = controller.handle(Tick())
        assert record.action == "steady"
        assert 0.0 <= float(record.detail("drift")) <= 1.0

    def test_empty_fleet_tick_is_steady(self, fleet_network):
        controller = controller_for(fleet_network, drift_threshold=0.0)
        record = controller.handle(Tick())
        assert record.action == "steady"

    def test_rebalance_improves_objective_within_churn(
        self, fleet_network, tenant_workflows
    ):
        # all-on-one placement maximises unfairness: any drift threshold
        # of zero forces a rebalance with improving moves available
        from repro.core.mapping import Deployment

        controller = controller_for(
            fleet_network, drift_threshold=0.0, max_moves_per_rebalance=3
        )
        workflow = tenant_workflows["gamma"]
        deployment = Deployment.all_on_one(workflow, "S1")
        controller.state.add_tenant("gamma", workflow, deployment)
        before = controller.state.tenant("gamma").deployment.as_dict()
        record = controller.handle(Tick())
        assert record.action == "rebalanced"
        after = controller.state.tenant("gamma").deployment.as_dict()
        moved = sum(1 for op in before if before[op] != after[op])
        churn = int(record.detail("churn"))
        assert 1 <= churn <= 3
        assert moved <= churn
        assert float(record.detail("objective_after")) < float(
            record.detail("objective_before")
        )
        assert float(record.detail("gain")) > 0.0


class TestLoop:
    def test_run_logs_one_record_per_event(
        self, fleet_network, tenant_workflows
    ):
        controller = controller_for(fleet_network)
        events = [
            DeployRequest("alpha", tenant_workflows["alpha"]),
            Tick(),
            UndeployRequest("alpha"),
        ]
        log = controller.run(events)
        assert len(log) == 3
        assert [r.event for r in log] == ["deploy", "tick", "undeploy"]
        assert [r.seq for r in log] == [0, 1, 2]

    def test_unknown_event_type_raises(self, fleet_network):
        controller = controller_for(fleet_network)
        with pytest.raises(ServiceError, match="unknown fleet event"):
            controller.handle(FleetEvent())

    def test_every_record_carries_objective_and_balance(
        self, fleet_network, tenant_workflows
    ):
        controller = controller_for(fleet_network)
        controller.handle(DeployRequest("alpha", tenant_workflows["alpha"]))
        record = controller.log[0]
        assert float(record.detail("objective")) > 0.0
        assert 0.0 < float(record.detail("balance")) <= 1.0


class TestMetrics:
    def test_counts_reflect_the_log(self, fleet_network, tenant_workflows):
        controller = controller_for(
            fleet_network, admission_load_limit_s=0.012
        )
        controller.handle(DeployRequest("alpha", tenant_workflows["alpha"]))
        controller.handle(DeployRequest("beta", tenant_workflows["beta"]))
        controller.handle(DeployRequest("gamma", tenant_workflows["gamma"]))
        controller.handle(UndeployRequest("alpha"))
        controller.handle(Tick())
        metrics = controller.metrics()
        assert metrics.events == 5
        assert metrics.admitted + metrics.rejected == 3
        assert metrics.rejected >= 1  # the 12 ms cap cannot host all three
        assert metrics.undeployed == 1
        assert metrics.mean_latency_s == pytest.approx(0.001)
        assert len(metrics.balance_timeline) == 5
        assert dict(metrics.events_by_kind) == {
            "deploy": 3,
            "undeploy": 1,
            "tick": 1,
        }

    def test_cache_hit_rates_exposed(self, fleet_network, tenant_workflows):
        controller = controller_for(fleet_network)
        controller.handle(DeployRequest("alpha", tenant_workflows["alpha"]))
        controller.handle(Tick())
        metrics = controller.metrics()
        assert metrics.cost_model_misses >= 1


class TestRebalanceLoop:
    """The rebalance is a plain loop: best strictly improving move first."""

    def test_rebalance_improves_within_the_churn_cap(
        self, fleet_network, tenant_workflows
    ):
        from repro.core.mapping import Deployment

        controller = controller_for(
            fleet_network, drift_threshold=0.0, max_moves_per_rebalance=3
        )
        workflow = tenant_workflows["gamma"]
        controller.state.add_tenant(
            "gamma", workflow, Deployment.all_on_one(workflow, "S1")
        )
        record = controller.handle(Tick())
        assert record.action == "rebalanced"
        assert 1 <= int(record.detail("churn")) <= 3
        assert float(record.detail("objective_after")) < float(
            record.detail("objective_before")
        )
        assert "stopped" not in record.details
        assert controller.state.tenant("gamma").deployment.is_complete(
            workflow
        )
