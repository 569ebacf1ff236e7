"""Server networks ``N(S, L)`` (section 2.2) and topology factories.

A *server* has a computational power ``P(s)`` in Hz; a *link* between two
servers has a speed (``Line_Speed``, bits/second) and a propagation delay
(``Trefl``, seconds). The paper evaluates two topologies:

* **line** -- servers chained ``S1 - S2 - ... - SN`` (used mainly for the
  introductory Line-Line study, section 3.2);
* **bus** -- a shared medium where "the communication cost between every
  pair of servers is considered the same" (sections 3.3-3.4). We model a
  bus as a complete graph with one uniform speed and propagation delay.

Star, ring, full-mesh and random factories are provided for extension
studies; the deployment algorithms dispatch on
:attr:`ServerNetwork.topology_kind`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Iterator, Sequence

import networkx as nx

from repro.exceptions import (
    DisconnectedNetworkError,
    DuplicateServerError,
    NetworkError,
    UnknownServerError,
)
from repro.numeric import ordered_sum

__all__ = [
    "Server",
    "Link",
    "ServerNetwork",
    "remove_server",
    "line_network",
    "bus_network",
    "star_network",
    "ring_network",
    "random_network",
    "full_mesh_network",
]


@dataclass(frozen=True)
class Server:
    """A deployment target: name plus computational power ``P(s)`` in Hz."""

    name: str
    power_hz: float

    def __post_init__(self) -> None:
        if not self.name:
            raise NetworkError("server name must be non-empty")
        if not math.isfinite(self.power_hz) or self.power_hz <= 0:
            raise NetworkError(
                f"server {self.name!r}: power must be finite and > 0, "
                f"got {self.power_hz!r}"
            )


@dataclass(frozen=True)
class Link:
    """An undirected connection between two servers.

    Parameters
    ----------
    a, b:
        Endpoint server names (order is irrelevant).
    speed_bps:
        ``Line_Speed`` in bits/second.
    propagation_s:
        ``Trefl``, the propagation delay in seconds (default 0, matching
        the paper's focus on transmission time).
    """

    a: str
    b: str
    speed_bps: float
    propagation_s: float = 0.0

    def __post_init__(self) -> None:
        if self.a == self.b:
            raise NetworkError(f"self-link on server {self.a!r} is not allowed")
        if not math.isfinite(self.speed_bps) or self.speed_bps <= 0:
            raise NetworkError(
                f"link {self.a!r}-{self.b!r}: speed must be finite and > 0, "
                f"got {self.speed_bps!r}"
            )
        if not math.isfinite(self.propagation_s) or self.propagation_s < 0:
            raise NetworkError(
                f"link {self.a!r}-{self.b!r}: propagation must be finite "
                f"and >= 0, got {self.propagation_s!r}"
            )

    @property
    def endpoints(self) -> frozenset[str]:
        """The unordered endpoint pair."""
        return frozenset((self.a, self.b))


class ServerNetwork:
    """A graph of servers: the deployment substrate.

    Parameters
    ----------
    name:
        Label used in reports.
    topology_kind:
        One of ``"line"``, ``"bus"``, ``"star"``, ``"ring"``, ``"mesh"``
        or ``"custom"``. Algorithms use this to select their cost
        shortcuts (e.g. on a bus every pair communicates at the same
        speed); factories set it automatically.
    """

    KNOWN_KINDS = ("line", "bus", "star", "ring", "mesh", "custom")

    def __init__(self, name: str = "network", topology_kind: str = "custom"):
        if topology_kind not in self.KNOWN_KINDS:
            raise NetworkError(
                f"unknown topology kind {topology_kind!r}; expected one of "
                f"{self.KNOWN_KINDS}"
            )
        self.name = name
        self.topology_kind = topology_kind
        self._graph: nx.Graph = nx.Graph()
        self._servers: dict[str, Server] = {}
        self._links: dict[frozenset[str], Link] = {}

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------
    def add_server(self, server: Server) -> Server:
        """Insert *server*; raise on duplicate names."""
        if server.name in self._servers:
            raise DuplicateServerError(
                f"server {server.name!r} already exists in {self.name!r}"
            )
        self._servers[server.name] = server
        self._graph.add_node(server.name)
        return server

    def add_servers(self, servers: Iterable[Server]) -> None:
        """Insert several servers in order."""
        for server in servers:
            self.add_server(server)

    def replace_server(self, server: Server) -> Server:
        """Swap the stored server of the same name with *server*.

        Links, graph structure and insertion order are untouched -- this
        models a capacity change (throttling, upgrade) of a live
        machine, not a topology change. Raises
        :class:`~repro.exceptions.UnknownServerError` when no server of
        that name exists.
        """
        if server.name not in self._servers:
            raise UnknownServerError(
                f"cannot replace unknown server {server.name!r} in "
                f"{self.name!r}"
            )
        self._servers[server.name] = server
        return server

    def add_link(self, link: Link) -> Link:
        """Insert *link*; both endpoints must already be servers."""
        for endpoint in (link.a, link.b):
            if endpoint not in self._servers:
                raise UnknownServerError(
                    f"link references unknown server {endpoint!r}"
                )
        if link.endpoints in self._links:
            raise NetworkError(
                f"a link between {link.a!r} and {link.b!r} already exists"
            )
        self._links[link.endpoints] = link
        self._graph.add_edge(link.a, link.b)
        return link

    def connect(
        self,
        a: str,
        b: str,
        speed_bps: float,
        propagation_s: float = 0.0,
    ) -> Link:
        """Convenience wrapper building and inserting a :class:`Link`."""
        return self.add_link(Link(a, b, speed_bps, propagation_s))

    def remove_link(self, a: str, b: str) -> Link:
        """Remove and return the link between *a* and *b*.

        Order-insensitive; raises
        :class:`~repro.exceptions.UnknownServerError` when no such link
        exists. Removal may disconnect the network -- callers that need
        connectivity (routing, the fleet) must check
        :meth:`is_connected` afterwards and decide their own policy
        (e.g. :meth:`repro.service.state.FleetState.drop_link` rolls the
        removal back).
        """
        link = self.link(a, b)
        del self._links[link.endpoints]
        self._graph.remove_edge(link.a, link.b)
        return link

    def replace_link(self, link: Link) -> Link:
        """Swap the stored link between the same endpoints with *link*.

        The graph structure is untouched -- this models a parameter
        change (degradation, upgrade) of an existing connection, the
        link-level sibling of :meth:`replace_server`. Raises
        :class:`~repro.exceptions.UnknownServerError` when no link
        between the endpoints exists.
        """
        if link.endpoints not in self._links:
            raise UnknownServerError(
                f"no link between {link.a!r} and {link.b!r} in "
                f"{self.name!r}"
            )
        self._links[link.endpoints] = link
        return link

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------
    def __contains__(self, name: str) -> bool:
        return name in self._servers

    def __len__(self) -> int:
        return len(self._servers)

    def __iter__(self) -> Iterator[Server]:
        return iter(self._servers.values())

    def server(self, name: str) -> Server:
        """Return the server called *name* or raise."""
        try:
            return self._servers[name]
        except KeyError:
            raise UnknownServerError(
                f"no server {name!r} in network {self.name!r}"
            ) from None

    @property
    def servers(self) -> tuple[Server, ...]:
        """All servers in insertion order."""
        return tuple(self._servers.values())

    @property
    def server_names(self) -> tuple[str, ...]:
        """All server names in insertion order."""
        return tuple(self._servers)

    @property
    def links(self) -> tuple[Link, ...]:
        """All links in insertion order."""
        return tuple(self._links.values())

    def link(self, a: str, b: str) -> Link:
        """Return the link between *a* and *b* (order-insensitive) or raise."""
        try:
            return self._links[frozenset((a, b))]
        except KeyError:
            raise UnknownServerError(
                f"no link between {a!r} and {b!r} in {self.name!r}"
            ) from None

    def has_link(self, a: str, b: str) -> bool:
        """True when *a* and *b* are directly connected."""
        return frozenset((a, b)) in self._links

    def neighbors(self, name: str) -> tuple[str, ...]:
        """Servers directly linked to *name*."""
        self.server(name)
        return tuple(self._graph.neighbors(name))

    @property
    def total_power_hz(self) -> float:
        """``Sum_Capacity``: combined power of all servers."""
        return ordered_sum(s.power_hz for s in self._servers.values())

    @property
    def graph(self) -> nx.Graph:
        """A read-only view of the underlying graph."""
        return self._graph.copy(as_view=True)

    def is_connected(self) -> bool:
        """True when every server can reach every other server."""
        if len(self) <= 1:
            return True
        return nx.is_connected(self._graph)

    def require_connected(self) -> None:
        """Raise :class:`DisconnectedNetworkError` unless connected."""
        if not self.is_connected():
            raise DisconnectedNetworkError(
                f"network {self.name!r} is not connected; messages between "
                f"some server pairs cannot be routed"
            )

    def is_line(self) -> bool:
        """True for a path topology ``S1 - S2 - ... - SN``."""
        if len(self) <= 1:
            return True
        if not self.is_connected():
            return False
        degrees = sorted(d for _, d in self._graph.degree())
        return degrees[:2] == [1, 1] and all(d == 2 for d in degrees[2:])

    def line_order(self) -> tuple[str, ...]:
        """Servers of a line network in chain order.

        The orientation starts from the endpoint that was inserted first,
        so factory-built lines keep their construction order. Raises
        :class:`NetworkError` when the topology is not a line.
        """
        if not self.is_line():
            raise NetworkError(f"network {self.name!r} is not a line")
        names = self.server_names
        if len(names) <= 2:
            return names
        endpoints = [n for n in names if self._graph.degree(n) == 1]
        start = min(endpoints, key=names.index)
        order = [start]
        previous = None
        while len(order) < len(names):
            candidates = [
                n for n in self._graph.neighbors(order[-1]) if n != previous
            ]
            previous = order[-1]
            order.append(candidates[0])
        return tuple(order)

    def is_uniform_bus(self, tolerance: float = 1e-12) -> bool:
        """True when every pair is directly linked at one common speed.

        This is the paper's bus assumption: "the communication cost
        between every pair of servers is considered the same".
        """
        n = len(self)
        if n <= 1:
            return True
        expected_links = n * (n - 1) // 2
        if len(self._links) != expected_links:
            return False
        speeds = {link.speed_bps for link in self._links.values()}
        props = {link.propagation_s for link in self._links.values()}
        return (
            max(speeds) - min(speeds) <= tolerance
            and max(props) - min(props) <= tolerance
        )

    @property
    def uniform_speed_bps(self) -> float:
        """The common link speed of a uniform bus network.

        Raises :class:`NetworkError` when the network is not a uniform bus.
        """
        if not self.is_uniform_bus():
            raise NetworkError(
                f"network {self.name!r} is not a uniform bus; links have "
                f"heterogeneous speeds or pairs are not fully connected"
            )
        if not self._links:
            raise NetworkError(
                f"network {self.name!r} has no links; uniform speed undefined"
            )
        return next(iter(self._links.values())).speed_bps

    def summary(self) -> dict[str, object]:
        """Small dict of structural statistics, handy for reports.

        Heterogeneous networks additionally report the link-speed range
        and worst-case propagation delay (``None`` for each when the
        network has no links), plus whether the paper's uniform-bus
        assumption holds.
        """
        speeds = [link.speed_bps for link in self._links.values()]
        propagations = [link.propagation_s for link in self._links.values()]
        return {
            "name": self.name,
            "kind": self.topology_kind,
            "servers": len(self),
            "links": len(self._links),
            "total_power_hz": self.total_power_hz,
            "connected": self.is_connected(),
            "min_link_speed_bps": min(speeds) if speeds else None,
            "max_link_speed_bps": max(speeds) if speeds else None,
            "max_propagation_s": max(propagations) if propagations else None,
            "uniform_bus": self.is_uniform_bus(),
        }

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"ServerNetwork({self.name!r}, kind={self.topology_kind!r}, "
            f"servers={len(self)}, links={len(self._links)})"
        )


def remove_server(network: ServerNetwork, server_name: str) -> ServerNetwork:
    """A copy of *network* without *server_name* and its links.

    The copy keeps the topology kind; a bus stays a (smaller) bus, while
    removing an interior line server disconnects the network -- the cost
    model will reject that, which is the correct physical answer.
    """
    network.server(server_name)  # raise early on unknown names
    if len(network) <= 1:
        raise NetworkError(
            f"cannot remove {server_name!r}: it is the only server"
        )
    survivor = ServerNetwork(
        f"{network.name}-minus-{server_name}",
        topology_kind=network.topology_kind,
    )
    for server in network.servers:
        if server.name != server_name:
            survivor.add_server(server)
    for link in network.links:
        if server_name not in link.endpoints:
            survivor.add_link(link)
    return survivor


# ----------------------------------------------------------------------
# factories
# ----------------------------------------------------------------------
def _named_servers(powers_hz: Sequence[float], prefix: str) -> list[Server]:
    if not powers_hz:
        raise NetworkError("at least one server power is required")
    return [
        Server(f"{prefix}{i + 1}", power) for i, power in enumerate(powers_hz)
    ]


def line_network(
    powers_hz: Sequence[float],
    speeds_bps: Sequence[float] | float,
    propagation_s: float = 0.0,
    name: str = "line",
    prefix: str = "S",
) -> ServerNetwork:
    """A chain ``S1 - S2 - ... - SN``.

    Parameters
    ----------
    powers_hz:
        One power per server, in order along the line.
    speeds_bps:
        Either one speed per link (``len(powers_hz) - 1`` values) or a
        single speed applied to every link.
    """
    servers = _named_servers(powers_hz, prefix)
    n_links = max(0, len(servers) - 1)
    if isinstance(speeds_bps, (int, float)):
        speeds = [float(speeds_bps)] * n_links
    else:
        speeds = [float(s) for s in speeds_bps]
        if len(speeds) != n_links:
            raise NetworkError(
                f"line of {len(servers)} servers needs {n_links} link "
                f"speeds, got {len(speeds)}"
            )
    network = ServerNetwork(name, topology_kind="line")
    network.add_servers(servers)
    for (left, right), speed in zip(zip(servers, servers[1:]), speeds):
        network.connect(left.name, right.name, speed, propagation_s)
    return network


def bus_network(
    powers_hz: Sequence[float],
    speed_bps: float,
    propagation_s: float = 0.0,
    name: str = "bus",
    prefix: str = "S",
) -> ServerNetwork:
    """A shared bus: every server pair communicates at *speed_bps*.

    Modelled as a complete graph with uniform link speed, matching the
    paper's assumption that all pairs share the same communication cost.
    """
    servers = _named_servers(powers_hz, prefix)
    network = ServerNetwork(name, topology_kind="bus")
    network.add_servers(servers)
    for i, left in enumerate(servers):
        for right in servers[i + 1 :]:
            network.connect(left.name, right.name, speed_bps, propagation_s)
    return network


def star_network(
    hub_power_hz: float,
    leaf_powers_hz: Sequence[float],
    speed_bps: float,
    propagation_s: float = 0.0,
    name: str = "star",
) -> ServerNetwork:
    """A hub server linked to every leaf server (extension topology)."""
    network = ServerNetwork(name, topology_kind="star")
    hub = network.add_server(Server("HUB", hub_power_hz))
    for i, power in enumerate(leaf_powers_hz):
        leaf = network.add_server(Server(f"S{i + 1}", power))
        network.connect(hub.name, leaf.name, speed_bps, propagation_s)
    return network


def ring_network(
    powers_hz: Sequence[float],
    speed_bps: float,
    propagation_s: float = 0.0,
    name: str = "ring",
    prefix: str = "S",
) -> ServerNetwork:
    """A cycle of servers (extension topology). Requires >= 3 servers."""
    if len(powers_hz) < 3:
        raise NetworkError("a ring needs at least 3 servers")
    servers = _named_servers(powers_hz, prefix)
    network = ServerNetwork(name, topology_kind="ring")
    network.add_servers(servers)
    for left, right in zip(servers, servers[1:] + servers[:1]):
        network.connect(left.name, right.name, speed_bps, propagation_s)
    return network


def random_network(
    powers_hz: Sequence[float],
    speeds_bps: Sequence[float] | float,
    extra_edge_probability: float = 0.3,
    rng=None,
    propagation_s: float = 0.0,
    name: str = "random",
    prefix: str = "S",
) -> ServerNetwork:
    """A connected random topology (extension studies).

    Construction: a random spanning tree (guaranteeing connectivity)
    plus each remaining pair independently with *extra_edge_probability*.
    Link speeds are drawn uniformly from *speeds_bps* when a sequence is
    given, or fixed when scalar.

    Parameters
    ----------
    rng:
        Anything :func:`repro.core.rng.coerce_rng` accepts: a
        ``random.Random``, an integer seed, or ``None`` for the default
        seed-0 stream (byte-identical to the historical inlined
        ``random.Random(0)`` default).
    """
    from repro.core.rng import coerce_rng

    rng = coerce_rng(rng)
    if not 0.0 <= extra_edge_probability <= 1.0:
        raise NetworkError("extra_edge_probability must lie in [0, 1]")
    servers = _named_servers(powers_hz, prefix)
    network = ServerNetwork(name, topology_kind="custom")
    network.add_servers(servers)

    def speed() -> float:
        if isinstance(speeds_bps, (int, float)):
            return float(speeds_bps)
        return float(rng.choice(list(speeds_bps)))

    # random spanning tree: attach each new node to a random earlier one
    names = [server.name for server in servers]
    for index in range(1, len(names)):
        anchor = names[rng.randrange(index)]
        network.connect(anchor, names[index], speed(), propagation_s)
    for i in range(len(names)):
        for j in range(i + 1, len(names)):
            if network.has_link(names[i], names[j]):
                continue
            if rng.random() < extra_edge_probability:
                network.connect(names[i], names[j], speed(), propagation_s)
    return network


def full_mesh_network(
    powers_hz: Sequence[float],
    speeds_bps: Sequence[Sequence[float]] | float,
    propagation_s: float = 0.0,
    name: str = "mesh",
    prefix: str = "S",
) -> ServerNetwork:
    """Every pair directly linked, optionally with per-pair speeds.

    Parameters
    ----------
    speeds_bps:
        Either a scalar speed for all pairs, or an upper-triangular
        matrix-like nested sequence where ``speeds_bps[i][j - i - 1]`` is
        the speed between server ``i`` and server ``j`` (``j > i``).
    """
    servers = _named_servers(powers_hz, prefix)
    network = ServerNetwork(name, topology_kind="mesh")
    network.add_servers(servers)
    for i, left in enumerate(servers):
        for offset, right in enumerate(servers[i + 1 :]):
            if isinstance(speeds_bps, (int, float)):
                speed = float(speeds_bps)
            else:
                speed = float(speeds_bps[i][offset])
            network.connect(left.name, right.name, speed, propagation_s)
    return network
