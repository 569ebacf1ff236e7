"""Unit tests for servers, links and network topologies."""

import pytest

from repro.exceptions import (
    DisconnectedNetworkError,
    DuplicateServerError,
    NetworkError,
    UnknownServerError,
)
from repro.network.topology import (
    Link,
    Server,
    ServerNetwork,
    bus_network,
    full_mesh_network,
    line_network,
    ring_network,
    star_network,
)


class TestServer:
    def test_valid(self):
        assert Server("S1", 1e9).power_hz == 1e9

    def test_rejects_empty_name(self):
        with pytest.raises(NetworkError):
            Server("", 1e9)

    @pytest.mark.parametrize("power", [0.0, -1e9, float("nan"), float("inf")])
    def test_rejects_bad_power(self, power):
        with pytest.raises(NetworkError):
            Server("S1", power)


class TestLink:
    def test_valid(self):
        link = Link("S1", "S2", 100e6, 0.001)
        assert link.endpoints == frozenset({"S1", "S2"})

    def test_rejects_self_link(self):
        with pytest.raises(NetworkError):
            Link("S1", "S1", 100e6)

    @pytest.mark.parametrize("speed", [0.0, -1.0, float("inf")])
    def test_rejects_bad_speed(self, speed):
        with pytest.raises(NetworkError):
            Link("S1", "S2", speed)

    def test_rejects_negative_propagation(self):
        with pytest.raises(NetworkError):
            Link("S1", "S2", 100e6, -0.1)


class TestServerNetwork:
    def test_duplicate_server_rejected(self, bus3):
        with pytest.raises(DuplicateServerError):
            bus3.add_server(Server("S1", 1e9))

    def test_duplicate_link_rejected(self, bus3):
        with pytest.raises(NetworkError):
            bus3.connect("S1", "S2", 10e6)
        with pytest.raises(NetworkError):
            bus3.connect("S2", "S1", 10e6)  # order-insensitive

    def test_link_requires_known_servers(self, bus3):
        with pytest.raises(UnknownServerError):
            bus3.connect("S1", "S9", 10e6)

    def test_unknown_topology_kind_rejected(self):
        with pytest.raises(NetworkError):
            ServerNetwork("x", topology_kind="torus")

    def test_queries(self, bus3):
        assert len(bus3) == 3
        assert "S1" in bus3 and "S9" not in bus3
        assert bus3.server_names == ("S1", "S2", "S3")
        assert bus3.server("S2").power_hz == 2e9
        assert bus3.total_power_hz == 6e9
        assert set(bus3.neighbors("S1")) == {"S2", "S3"}

    def test_link_lookup_is_order_insensitive(self, bus3):
        assert bus3.link("S1", "S2") is bus3.link("S2", "S1")
        assert bus3.has_link("S3", "S1")
        with pytest.raises(UnknownServerError):
            bus3.link("S1", "S9")

    def test_connectivity(self):
        network = ServerNetwork("disc")
        network.add_servers([Server("S1", 1e9), Server("S2", 1e9)])
        assert not network.is_connected()
        with pytest.raises(DisconnectedNetworkError):
            network.require_connected()
        network.connect("S1", "S2", 1e6)
        network.require_connected()

    def test_single_server_is_connected(self):
        network = ServerNetwork("solo")
        network.add_server(Server("S1", 1e9))
        assert network.is_connected()
        assert network.is_line()


class TestLineTopology:
    def test_factory_builds_chain(self, chain3):
        assert chain3.is_line()
        assert chain3.topology_kind == "line"
        assert chain3.line_order() == ("S1", "S2", "S3")
        assert chain3.link("S1", "S2").speed_bps == 10e6
        assert chain3.link("S2", "S3").speed_bps == 100e6
        assert not chain3.has_link("S1", "S3")

    def test_scalar_speed_broadcast(self):
        network = line_network([1e9, 1e9, 1e9, 1e9], speeds_bps=5e6)
        assert all(link.speed_bps == 5e6 for link in network.links)

    def test_speed_count_mismatch_rejected(self):
        with pytest.raises(NetworkError):
            line_network([1e9, 1e9, 1e9], speeds_bps=[1e6])

    def test_line_order_ignores_insertion_order(self):
        network = ServerNetwork("shuffled")
        network.add_servers(
            [Server("B", 1e9), Server("A", 1e9), Server("C", 1e9)]
        )
        network.connect("A", "B", 1e6)
        network.connect("B", "C", 1e6)
        # B was inserted first but is interior; endpoints are A and C, and
        # the first-inserted endpoint orients the chain
        assert network.line_order() == ("A", "B", "C")

    def test_line_order_rejects_non_line(self, bus3):
        with pytest.raises(NetworkError):
            bus3.line_order()

    def test_bus_is_not_line(self, bus3):
        assert not bus3.is_line()


class TestBusTopology:
    def test_factory_builds_complete_graph(self, bus3):
        assert bus3.topology_kind == "bus"
        assert len(bus3.links) == 3  # C(3, 2)
        assert bus3.is_uniform_bus()
        assert bus3.uniform_speed_bps == 100e6

    def test_heterogeneous_mesh_is_not_uniform_bus(self):
        network = full_mesh_network([1e9, 1e9, 1e9], [[1e6, 2e6], [3e6]])
        assert not network.is_uniform_bus()
        with pytest.raises(NetworkError):
            network.uniform_speed_bps

    def test_incomplete_graph_is_not_uniform_bus(self, chain3):
        assert not chain3.is_uniform_bus()

    def test_single_server_bus(self):
        network = bus_network([1e9], speed_bps=1e6)
        assert network.is_uniform_bus()
        with pytest.raises(NetworkError):
            network.uniform_speed_bps  # no links -> undefined


class TestOtherFactories:
    def test_star(self):
        network = star_network(3e9, [1e9, 1e9], speed_bps=1e6)
        assert network.topology_kind == "star"
        assert set(network.neighbors("HUB")) == {"S1", "S2"}
        assert not network.has_link("S1", "S2")

    def test_ring(self):
        network = ring_network([1e9] * 4, speed_bps=1e6)
        assert network.topology_kind == "ring"
        assert len(network.links) == 4
        assert network.has_link("S4", "S1")

    def test_ring_needs_three_servers(self):
        with pytest.raises(NetworkError):
            ring_network([1e9, 1e9], speed_bps=1e6)

    def test_mesh_per_pair_speeds(self):
        network = full_mesh_network([1e9, 1e9, 1e9], [[1e6, 2e6], [3e6]])
        assert network.link("S1", "S2").speed_bps == 1e6
        assert network.link("S1", "S3").speed_bps == 2e6
        assert network.link("S2", "S3").speed_bps == 3e6

    def test_factories_reject_empty(self):
        with pytest.raises(NetworkError):
            bus_network([], speed_bps=1e6)

    def test_summary(self, bus3):
        summary = bus3.summary()
        assert summary["servers"] == 3
        assert summary["links"] == 3
        assert summary["connected"] is True


class TestLiveMutation:
    """replace_server / remove_link / replace_link on a live network."""

    def test_replace_server_preserves_incident_links(self, chain3):
        links_before = chain3.links
        order_before = chain3.server_names
        chain3.replace_server(Server("S2", 9e9))
        assert chain3.server("S2").power_hz == 9e9
        assert chain3.links == links_before
        assert chain3.server_names == order_before
        assert set(chain3.neighbors("S2")) == {"S1", "S3"}
        assert chain3.line_order() == ("S1", "S2", "S3")

    def test_replace_server_unknown_rejected(self, chain3):
        with pytest.raises(UnknownServerError):
            chain3.replace_server(Server("S9", 1e9))

    def test_remove_link(self, bus3):
        removed = bus3.remove_link("S2", "S1")  # order-insensitive
        assert removed.endpoints == frozenset({"S1", "S2"})
        assert not bus3.has_link("S1", "S2")
        assert len(bus3.links) == 2
        assert bus3.is_connected()  # S1-S3-S2 still routes
        with pytest.raises(UnknownServerError):
            bus3.remove_link("S1", "S2")

    def test_remove_link_may_disconnect(self, chain3):
        chain3.remove_link("S1", "S2")
        assert not chain3.is_connected()

    def test_replace_link_swaps_parameters_only(self, chain3):
        old = chain3.link("S1", "S2")
        chain3.replace_link(Link("S1", "S2", old.speed_bps / 2, 0.25))
        link = chain3.link("S1", "S2")
        assert link.speed_bps == old.speed_bps / 2
        assert link.propagation_s == 0.25
        assert len(chain3.links) == 2
        assert chain3.is_line()

    def test_replace_link_unknown_rejected(self, chain3):
        with pytest.raises(UnknownServerError):
            chain3.replace_link(Link("S1", "S3", 1e6))

    def test_edge_data_holds_the_current_link(self, chain3):
        chain3.replace_link(Link("S2", "S1", 5e6, 0.5))
        graph = chain3.graph
        for a, b in (("S1", "S2"), ("S2", "S3")):
            assert graph.edges[a, b]["link"] is chain3.link(a, b)


#: One call of each ServerNetwork mutator on the ``chain3`` fixture.
MUTATIONS = {
    "add_server": lambda network: network.add_server(Server("S4", 1e9)),
    "replace_server": lambda network: network.replace_server(
        Server("S2", 9e9)
    ),
    "add_link": lambda network: network.add_link(Link("S1", "S3", 1e6)),
    "remove_link": lambda network: network.remove_link("S1", "S2"),
    "replace_link": lambda network: network.replace_link(
        Link("S1", "S2", 1e6)
    ),
}


@pytest.mark.parametrize("mutation", sorted(MUTATIONS))
def test_every_mutator_bumps_the_generation(chain3, mutation):
    before = chain3.generation
    chain3.summary()  # queries leave it alone
    assert chain3.generation == before
    MUTATIONS[mutation](chain3)
    assert chain3.generation == before + 1


class TestHeterogeneousSummary:
    def test_uniform_bus_summary(self, bus3):
        summary = bus3.summary()
        assert summary["uniform_bus"] is True
        assert summary["min_link_speed_bps"] == 100e6
        assert summary["max_link_speed_bps"] == 100e6
        assert summary["max_propagation_s"] == 0.0

    def test_heterogeneous_summary(self):
        network = ServerNetwork("het")
        network.add_servers([Server("A", 1e9), Server("B", 2e9)])
        network.add_link(Link("A", "B", 5e6, 0.02))
        network.add_server(Server("C", 3e9))
        network.add_link(Link("B", "C", 50e6, 0.001))
        summary = network.summary()
        assert summary["uniform_bus"] is False
        assert summary["min_link_speed_bps"] == 5e6
        assert summary["max_link_speed_bps"] == 50e6
        assert summary["max_propagation_s"] == 0.02

    def test_linkless_summary(self):
        network = ServerNetwork("solo")
        network.add_server(Server("A", 1e9))
        summary = network.summary()
        assert summary["min_link_speed_bps"] is None
        assert summary["max_link_speed_bps"] is None
        assert summary["max_propagation_s"] is None
