"""Unit tests for the SNDlib-style/JSON topology loader."""

import json

import pytest

from repro.exceptions import NetworkError, ReproError, TopologyFormatError
from repro.io.json_codec import network_to_dict
from repro.network.topology import bus_network
from repro.scenarios import abilene_network, load_topology, parse_topology
from repro.scenarios.loader import SIGNAL_SPEED_M_PER_S, great_circle_m

MINI = """
# a 3-node triangle with one explicit delay
NODES (
  A ( 0.0 0.0 )
  B ( 1.0 0.0 )
  C ( 0.0 1.0 )
)
LINKS (
  L1 ( A B ) 100.0
  L2 ( B C ) 50.0 2.5
  L3 ( C A ) 10.0
)
"""


class TestParseTopology:
    def test_mini_triangle(self):
        network = parse_topology(MINI, name="mini")
        assert network.name == "mini"
        assert network.server_names == ("A", "B", "C")
        assert len(network.links) == 3
        assert all(s.power_hz == 2e9 for s in network)

    def test_capacity_unit_scaling(self):
        network = parse_topology(MINI)
        # default unit is Mbps
        assert network.link("A", "B").speed_bps == 100.0 * 1e6
        kbps = parse_topology(MINI, capacity_unit_bps=1e3)
        assert kbps.link("A", "B").speed_bps == 100.0 * 1e3

    def test_explicit_delay_column_wins(self):
        network = parse_topology(MINI)
        assert network.link("B", "C").propagation_s == 2.5 / 1e3

    def test_distance_derived_propagation(self):
        network = parse_topology(MINI)
        expected = (
            great_circle_m(0.0, 0.0, 1.0, 0.0) / SIGNAL_SPEED_M_PER_S
        )
        assert network.link("A", "B").propagation_s == pytest.approx(
            expected
        )
        assert network.link("A", "B").propagation_s > 0

    def test_default_power_override(self):
        network = parse_topology(MINI, default_power_hz=5e9)
        assert all(s.power_hz == 5e9 for s in network)

    @pytest.mark.parametrize(
        "text, fragment",
        [
            ("NODES (\n A ( x 0 )\n)", "longitude must be a number"),
            ("NODES (\n A 0 0\n)", "expected 'name"),
            ("NODES (\n A ( 0 0 )\n A ( 1 1 )\n)", "duplicate node"),
            (
                "NODES (\n A ( 0 0 )\n B ( 1 1 )\n)\n"
                "LINKS (\n L1 ( A X ) 10\n)",
                "unknown endpoint",
            ),
            (
                "NODES (\n A ( 0 0 )\n B ( 1 1 )\n)\n"
                "LINKS (\n L1 ( A B ) -3\n)",
                "capacity must be > 0",
            ),
            (
                "NODES (\n A ( 0 0 )\n B ( 1 1 )\n)\n"
                "LINKS (\n L1 ( A B ) 10 -1\n)",
                "delay_ms must be >= 0",
            ),
            (
                "NODES (\n A ( 0 0 )\n B ( 1 1 )\n)\n"
                "LINKS (\n L1 ( A B ) 10\n L2 ( B A ) 10\n)",
                "duplicate link",
            ),
            ("hello", "outside NODES/LINKS"),
            ("NODES (\n A ( 0 0 )", "unterminated"),
            ("NODES (\nNODES (\n)", "unterminated previous section"),
            (")", "outside any section"),
            ("", "no NODES section"),
            ("NODES\n", "section header must end"),
        ],
    )
    def test_malformed_text_raises_with_context(self, text, fragment):
        with pytest.raises(TopologyFormatError, match=fragment):
            parse_topology(text)

    def test_error_is_a_network_error(self):
        assert issubclass(TopologyFormatError, NetworkError)
        assert issubclass(TopologyFormatError, ReproError)

    def test_disconnected_rejected(self):
        text = (
            "NODES (\n A ( 0 0 )\n B ( 1 1 )\n C ( 2 2 )\n)\n"
            "LINKS (\n L1 ( A B ) 10\n)"
        )
        with pytest.raises(ReproError):
            parse_topology(text)

    def test_comments_and_blanks_ignored(self):
        network = parse_topology(
            "# leading comment\n\nNODES (\n  A ( 0 0 )  # inline\n"
            "  B ( 1 1 )\n)\nLINKS (\n  L1 ( A B ) 10\n)\n"
        )
        assert len(network) == 2


class TestLoadTopology:
    def test_text_file(self, tmp_path):
        path = tmp_path / "mini.txt"
        path.write_text(MINI)
        network = load_topology(path)
        assert network.name == "mini"  # from the stem
        assert load_topology(path, name="other").name == "other"

    def test_json_file(self, tmp_path):
        source = bus_network([1e9, 2e9, 3e9], speed_bps=5e6, name="bus")
        path = tmp_path / "net.json"
        path.write_text(json.dumps(network_to_dict(source)))
        network = load_topology(path)
        assert network.server_names == source.server_names
        assert network.link("S1", "S2").speed_bps == 5e6

    def test_json_dispatch_on_content(self, tmp_path):
        # leading '{' wins even without a .json suffix
        source = bus_network([1e9, 1e9], speed_bps=1e6)
        path = tmp_path / "net.topo"
        path.write_text(json.dumps(network_to_dict(source)))
        assert len(load_topology(path)) == 2

    def test_missing_file(self, tmp_path):
        with pytest.raises(TopologyFormatError, match="cannot read"):
            load_topology(tmp_path / "nope.txt")

    def test_bad_json(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        with pytest.raises(TopologyFormatError, match="not valid JSON"):
            load_topology(path)

    @pytest.mark.parametrize(
        "section, field",
        [
            ("servers", "power_hz"),
            ("links", "speed_bps"),
            ("links", "propagation_s"),
        ],
    )
    def test_json_non_numeric_field(self, tmp_path, section, field):
        document = network_to_dict(bus_network([1e9, 2e9], speed_bps=1e6))
        document[section][0][field] = "fast"
        path = tmp_path / "net.json"
        path.write_text(json.dumps(document))
        with pytest.raises(TopologyFormatError, match=field):
            load_topology(path)

    def test_json_wrong_shape(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{"unexpected": true}')
        with pytest.raises(TopologyFormatError):
            load_topology(path)


class TestAbileneFixture:
    def test_bundled_fixture_loads(self):
        network = abilene_network()
        assert network.name == "abilene"
        assert len(network) == 12
        assert len(network.links) == 15
        assert network.is_connected()
        assert not network.is_uniform_bus()

    def test_multi_hop_and_heterogeneous_delay(self):
        network = abilene_network()
        # Abilene is sparse: coast-to-coast pairs are not adjacent
        assert not network.has_link("NYCMng", "LOSAng")
        # every trunk is OC-192 but propagation varies with distance
        speeds = {link.speed_bps for link in network.links}
        assert speeds == {9920.0 * 1e6}
        propagations = [link.propagation_s for link in network.links]
        assert min(propagations) > 0
        assert max(propagations) > 2 * min(propagations)

    def test_power_override(self):
        network = abilene_network(default_power_hz=3e9, name="abi")
        assert network.name == "abi"
        assert all(s.power_hz == 3e9 for s in network)
