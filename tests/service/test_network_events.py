"""Unit tests for the dynamic network events and their handlers.

LinkFailure / LinkDegrade / RegionOutage through the controller: the
topology is patched in place, route tables are invalidated (never the
cost-model caches), placements survive, and a drift check with a
bounded rebalance runs immediately rather than waiting for the next
tick.
"""

import pytest

from repro.core.clock import StepClock
from repro.exceptions import ServiceError
from repro.network.routing import Router
from repro.network.topology import (
    Link,
    Server,
    ServerNetwork,
    bus_network,
    line_network,
)
from repro.scenarios import geo_network
from repro.service.controller import FleetConfig, FleetController
from repro.service.events import (
    DeployRequest,
    LinkDegrade,
    LinkFailure,
    RegionOutage,
    ServerFailed,
    Tick,
)
from repro.service.state import FleetState

from .conftest import make_line


def controller_for(network, **overrides):
    config = FleetConfig(**overrides)
    return FleetController(network, config=config, clock=StepClock())


class TestEventValidation:
    def test_kinds(self):
        assert LinkFailure("A", "B").kind == "link-failed"
        assert LinkDegrade("A", "B", 0.5).kind == "link-degraded"
        assert RegionOutage("us-east").kind == "region-outage"

    @pytest.mark.parametrize(
        "factor", [0.0, -1.0, float("inf"), float("nan")]
    )
    def test_degrade_rejects_bad_speed_factor(self, factor):
        with pytest.raises(ServiceError, match="speed_factor"):
            LinkDegrade("A", "B", factor)

    @pytest.mark.parametrize("factor", [-0.5, float("inf"), float("nan")])
    def test_degrade_rejects_bad_propagation_factor(self, factor):
        with pytest.raises(ServiceError, match="propagation_factor"):
            LinkDegrade("A", "B", 0.5, propagation_factor=factor)

    def test_upgrade_factors_allowed(self):
        event = LinkDegrade("A", "B", 2.0, propagation_factor=0.0)
        assert event.speed_factor == 2.0

    def test_outage_rejects_empty_region(self):
        with pytest.raises(ServiceError, match="non-empty region"):
            RegionOutage("")


class TestLinkFailure:
    def test_reroutes_over_surviving_links(
        self, fleet_network, tenant_workflows
    ):
        controller = controller_for(fleet_network)
        controller.handle(DeployRequest("alpha", tenant_workflows["alpha"]))
        placement_before = dict(
            controller.state.tenant("alpha").deployment
        )
        links_before = len(fleet_network.links)
        record = controller.handle(LinkFailure("S1", "S2"))
        assert record.action == "rerouted"
        assert record.subject == "S1-S2"
        assert int(record.detail("links")) == links_before - 1
        assert not controller.state.network.has_link("S1", "S2")
        # the placement itself is untouched by the failure (any moves
        # would come from the drift check, logged in the same record)
        if record.details_dict.get("churn", "0") == "0":
            assert (
                dict(controller.state.tenant("alpha").deployment)
                == placement_before
            )

    def test_rejects_unknown_server(self, fleet_network):
        controller = controller_for(fleet_network)
        record = controller.handle(LinkFailure("S1", "S9"))
        assert record.action == "rejected"
        assert record.detail("reason") == "unknown-server"

    def test_rejects_unknown_link(self):
        chain = line_network([1e9, 1e9, 1e9], speeds_bps=1e8)
        controller = controller_for(chain)
        record = controller.handle(LinkFailure("S1", "S3"))
        assert record.action == "rejected"
        assert record.detail("reason") == "unknown-link"

    def test_rejects_partition_and_keeps_link(self):
        chain = line_network([1e9, 1e9, 1e9], speeds_bps=1e8)
        controller = controller_for(chain)
        neighbors = chain.neighbors("S2")
        record = controller.handle(LinkFailure("S1", "S2"))
        assert record.action == "rejected"
        assert record.detail("reason") == "would-partition"
        assert controller.state.network.has_link("S1", "S2")
        assert controller.state.network.is_connected()
        # untouched, not removed and re-added: the adjacency order that
        # breaks routing ties is the same
        assert controller.state.network.neighbors("S2") == neighbors

    def test_failure_changes_cost_estimates(self, tenant_workflows):
        # a 3-server ring-ish bus: dropping S1-S2 forces S1<->S2 traffic
        # through S3, so any tenant spanning S1/S2 gets slower routes
        network = bus_network([1e9, 1e9, 1e9], 1e6, name="tri")
        controller = controller_for(network)
        controller.handle(DeployRequest("alpha", tenant_workflows["alpha"]))
        before = controller.snapshot().objective
        controller.handle(LinkFailure("S1", "S2"))
        after = controller.snapshot().objective
        spans = set(
            dict(controller.state.tenant("alpha").deployment).values()
        )
        if {"S1", "S2"} <= spans:
            assert after != before


class TestLinkDegrade:
    def test_degrade_patches_link_parameters(self, fleet_network):
        controller = controller_for(fleet_network)
        old = fleet_network.link("S1", "S2")
        record = controller.handle(
            LinkDegrade("S1", "S2", 0.25, propagation_factor=2.0)
        )
        assert record.action == "degraded"
        link = controller.state.network.link("S1", "S2")
        assert link.speed_bps == pytest.approx(old.speed_bps * 0.25)
        assert link.propagation_s == pytest.approx(old.propagation_s * 2.0)

    def test_degrade_slows_the_fleet(self, tenant_workflows):
        network = bus_network([1e9, 1e9], 1e6, name="duo")
        controller = controller_for(network)
        controller.handle(DeployRequest("beta", tenant_workflows["beta"]))
        before = controller.snapshot().objective
        controller.handle(LinkDegrade("S1", "S2", 0.01))
        after = controller.snapshot().objective
        mapping = dict(controller.state.tenant("beta").deployment)
        if len(set(mapping.values())) > 1:
            assert after > before

    def test_rejections(self, fleet_network):
        chain = line_network([1e9, 1e9, 1e9], speeds_bps=1e8)
        controller = controller_for(chain)
        assert (
            controller.handle(LinkDegrade("S1", "S9", 0.5)).detail("reason")
            == "unknown-server"
        )
        assert (
            controller.handle(LinkDegrade("S1", "S3", 0.5)).detail("reason")
            == "unknown-link"
        )

    def test_degrade_then_restore_is_cost_neutral(self, fleet_network):
        controller = controller_for(fleet_network)
        controller.handle(
            DeployRequest("t", make_line("t", [10e6, 20e6], bits=1e6))
        )
        before = controller.snapshot().objective
        controller.handle(LinkDegrade("S1", "S2", 0.5))
        controller.handle(LinkDegrade("S1", "S2", 2.0))
        assert controller.snapshot().objective == pytest.approx(before)

    def test_upgrade_refreshes_every_route(self):
        # regression: degrade_link used to take a caller's worsening=
        # flag, which picked the scoped refresh for this upgrade and
        # kept serving the cached two-hop A-C-B route
        network = ServerNetwork("triangle")
        for name in "ABC":
            network.add_server(Server(name, 1e9))
        network.add_link(Link("A", "B", 1e6))
        network.add_link(Link("A", "C", 1e9))
        network.add_link(Link("C", "B", 1e9))
        state = FleetState(network)
        assert state.router.path("A", "B", 1e6) == ("A", "C", "B")
        with pytest.raises(TypeError):
            state.degrade_link("A", "B", 1e4, worsening=True)
        state.degrade_link("A", "B", 1e4)
        fresh = Router(state.network)
        for a in "ABC":
            for b in "ABC":
                assert state.router.path(a, b, 1e6) == fresh.path(a, b, 1e6)
                assert state.router.transmission_time(
                    a, b, 1e6
                ) == fresh.transmission_time(a, b, 1e6)
        assert state.router.path("A", "B", 1e6) == ("A", "B")


class TestRegionOutage:
    def geo_controller(self, **overrides):
        network = geo_network(
            ("us-east", "us-west"), servers_per_region=2, name="geo-test"
        )
        return controller_for(network, **overrides)

    def test_outage_fails_all_members_and_rehomes(self, tenant_workflows):
        controller = self.geo_controller()
        for tenant, workflow in tenant_workflows.items():
            controller.handle(DeployRequest(tenant, workflow))
        record = controller.handle(RegionOutage("us-east"))
        assert record.action == "recovered"
        assert int(record.detail("servers_lost")) == 2
        assert int(record.detail("servers_left")) == 2
        network = controller.state.network
        assert "us-east/1" not in network and "us-east/2" not in network
        # every tenant is still completely placed on the survivors
        for tenant, workflow in tenant_workflows.items():
            deployment = controller.state.tenant(tenant).deployment
            assert deployment.is_complete(workflow)
            assert set(dict(deployment).values()) <= {
                "us-west/1",
                "us-west/2",
            }

    def test_unknown_region_rejected(self, tenant_workflows):
        controller = self.geo_controller()
        record = controller.handle(RegionOutage("mars"))
        assert record.action == "rejected"
        assert record.detail("reason") == "unknown-region"

    def test_whole_fleet_outage_rejected(self, fleet_network):
        # on a non-geo bus every server is its own region, so an outage
        # for one server name is a single-server outage...
        controller = controller_for(fleet_network)
        record = controller.handle(RegionOutage("S1"))
        assert record.action == "recovered"
        assert "S1" not in controller.state.network
        # ...and a region covering the whole fleet is refused
        solo = bus_network([1e9], speed_bps=1e6, name="solo")
        record = controller_for(solo).handle(RegionOutage("S1"))
        assert record.action == "rejected"
        assert record.detail("reason") == "whole-fleet"

    def test_orphans_never_land_on_dying_servers(self, tenant_workflows):
        network = geo_network(
            ("us-east", "us-west", "eu-west"),
            servers_per_region=2,
            name="geo-3",
        )
        controller = controller_for(network)
        for tenant, workflow in tenant_workflows.items():
            controller.handle(DeployRequest(tenant, workflow))
        record = controller.handle(RegionOutage("us-east"))
        assert record.action == "recovered"
        survivors = set(controller.state.network.server_names)
        for tenant in tenant_workflows:
            mapping = dict(controller.state.tenant(tenant).deployment)
            assert set(mapping.values()) <= survivors


class TestServerLossPartition:
    """A failure that would split the survivors is refused untouched."""

    def line_controller(self, tenant_workflows):
        # a/1 - b/1 - b/2 - c/1: losing b/1 (or region b) strands a/1
        network = ServerNetwork("line-4")
        names = ("a/1", "b/1", "b/2", "c/1")
        network.add_servers([Server(name, 1e9) for name in names])
        for a, b in zip(names, names[1:]):
            network.add_link(Link(a, b, 1e8))
        controller = controller_for(network)
        controller.handle(DeployRequest("alpha", tenant_workflows["alpha"]))
        return controller

    @pytest.mark.parametrize(
        "event", [ServerFailed("b/1"), RegionOutage("b")], ids=repr
    )
    def test_rejected_before_any_change(self, tenant_workflows, event):
        controller = self.line_controller(tenant_workflows)
        state = controller.state
        network = state.network
        servers, links = network.server_names, network.links
        placement = dict(state.tenant("alpha").deployment)
        router = state.router
        models = {t: state.cost_model(t) for t in state.tenants}
        record = controller.handle(event)
        assert record.action == "rejected"
        assert record.detail("reason") == "would-partition"
        assert state.network is network
        assert network.server_names == servers
        assert network.links == links
        assert dict(state.tenant("alpha").deployment) == placement
        assert state.router is router
        for tenant, model in models.items():
            assert state.cost_model(tenant) is model, tenant
        # the fleet keeps working after the refusal
        assert controller.handle(Tick()).action in ("steady", "rebalanced")
        record = controller.handle(
            DeployRequest("beta", tenant_workflows["beta"])
        )
        assert record.action == "admitted"

    def test_stranded_member_does_not_block_an_outage(
        self, tenant_workflows
    ):
        # b/2 hangs off b/1 only: losing b/1 alone would strand it, but
        # region b takes both and the survivor a/1 is whole
        network = ServerNetwork("spur")
        names = ("a/1", "b/1", "b/2")
        network.add_servers([Server(name, 1e9) for name in names])
        network.add_link(Link("a/1", "b/1", 1e8))
        network.add_link(Link("b/1", "b/2", 1e8))
        controller = controller_for(network)
        controller.handle(DeployRequest("alpha", tenant_workflows["alpha"]))
        record = controller.handle(RegionOutage("b"))
        assert record.action == "recovered"
        assert controller.state.network.server_names == ("a/1",)


class TestRouteInvalidationKeepsCostModels:
    def test_link_events_keep_compiled_artifacts(
        self, fleet_network, tenant_workflows
    ):
        controller = controller_for(fleet_network)
        controller.handle(DeployRequest("alpha", tenant_workflows["alpha"]))
        compiled_before = controller.state.cost_model("alpha").compiled
        controller.handle(LinkDegrade("S1", "S2", 0.5))
        compiled_after = controller.state.cost_model("alpha").compiled
        # link-only changes reuse the compiled instance in place
        assert compiled_after is compiled_before

    def test_tick_after_event_stays_consistent(
        self, fleet_network, tenant_workflows
    ):
        controller = controller_for(fleet_network, drift_threshold=0.01)
        for tenant, workflow in tenant_workflows.items():
            controller.handle(DeployRequest(tenant, workflow))
        controller.handle(LinkFailure("S1", "S2"))
        record = controller.handle(Tick())
        assert record.action in ("steady", "rebalanced")
