"""Property tests: the frozen per-pair Dijkstra oracle for repro.network.apsp.

The routing kernel's exactness contract (DESIGN.md §15): every
coefficient, representative path and classification the batched
all-pairs compiler produces must equal -- to the last bit -- what the
pre-compilation per-pair implementation computed with networkx Dijkstra
behind a Python-lambda weight. That original implementation is *frozen
into this file* as the oracle, so the kernel can never drift from it
unnoticed:

* **Classification parity** -- on random continuous-weight networks,
  heterogeneous detour topologies, the bundled Abilene backbone and
  seeded geo fleets: ``compile_all_pairs`` (dense fast path included)
  and the lazy query path both match the oracle's path, coefficients
  and size-independence flag exactly, for every *canonical* pair --
  and reverse queries return the same floats with the reversed path
  (the canonical-direction build rule). Lazily, a full table costs at
  most two passes per source, like one compile.
* **Sized parity** -- per-size fallback paths equal the oracle's sized
  networkx query.
* **Invalidation equivalence** -- after random sequences of worsenings
  and improvements, the row-certified invalidation and a fresh compile
  agree exactly on every pair.
"""

import random

import networkx as nx
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.network.routing import Router
from repro.network.topology import Link, Server, ServerNetwork
from repro.scenarios import abilene_network, random_geo_network

seeds = st.integers(min_value=0, max_value=10_000)


# ----------------------------------------------------------------------
# the frozen oracle: the pre-apsp per-pair classification, verbatim
# ----------------------------------------------------------------------
def _oracle_sized_path(network, source, target, size_bits):
    """The original sized query: networkx Dijkstra, lambda weight."""
    return tuple(
        nx.dijkstra_path(
            network.graph,
            source,
            target,
            weight=lambda a, b, _attrs: (
                size_bits / network.link(a, b).speed_bps
                + network.link(a, b).propagation_s
            ),
        )
    )


def _oracle_coefficients(network, nodes):
    propagation = 0.0
    transfer = 0.0
    for a, b in zip(nodes, nodes[1:]):
        link = network.link(a, b)
        propagation += link.propagation_s
        transfer += 1.0 / link.speed_bps
    return propagation, transfer


def _oracle_route(network, source, target):
    """The original ``Router._build_route``, frozen.

    Returns ``(path, propagation_s, transfer_s_per_bit,
    size_independent)`` classified with the pinned branch order.
    """
    path_zero = _oracle_sized_path(network, source, target, 0.0)
    prop_zero, transfer_zero = _oracle_coefficients(network, path_zero)
    path_large = tuple(
        nx.dijkstra_path(
            network.graph,
            source,
            target,
            weight=lambda a, b, _attrs: (
                1.0 / network.link(a, b).speed_bps
            ),
        )
    )
    prop_large, transfer_large = _oracle_coefficients(network, path_large)
    if transfer_zero <= transfer_large:
        return (path_zero, prop_zero, transfer_zero, True)
    if prop_large <= prop_zero:
        return (path_large, prop_large, transfer_large, True)
    return (path_zero, prop_zero, transfer_zero, False)


# ----------------------------------------------------------------------
# network generators: continuous weights make float ties measure-zero
# ----------------------------------------------------------------------
def random_network(seed, servers=None, extra_links=None):
    rng = random.Random(seed)
    n = servers if servers is not None else rng.randint(3, 9)
    network = ServerNetwork(f"prop-{seed}")
    names = [f"S{i}" for i in range(n)]
    network.add_servers([Server(name, rng.uniform(1e9, 4e9)) for name in names])
    # a random spanning tree keeps it connected ...
    for i in range(1, n):
        j = rng.randrange(i)
        network.connect(
            names[i],
            names[j],
            rng.uniform(1e6, 1e9),
            propagation_s=rng.uniform(1e-4, 5e-2),
        )
    # ... plus extra chords for genuine route choice
    extra = extra_links if extra_links is not None else rng.randint(0, 2 * n)
    for _ in range(extra):
        a, b = rng.sample(names, 2)
        if not network.has_link(a, b):
            network.connect(
                a,
                b,
                rng.uniform(1e6, 1e9),
                propagation_s=rng.uniform(1e-4, 5e-2),
            )
    return network


def assert_matches_oracle(router, network):
    """Every pair equals the frozen oracle, bit for bit."""
    names = network.server_names
    index = {name: i for i, name in enumerate(names)}
    for a in names:
        for b in names:
            if a == b:
                continue
            got = router.cached_route(a, b)
            assert got is not None, f"pair {(a, b)} missing from the table"
            # the canonical-direction build rule: the pair's floats are
            # the oracle's for its canonical direction; the reverse
            # query shares them with the path reversed
            ca, cb = (a, b) if index[a] < index[b] else (b, a)
            path, propagation, transfer, independent = _oracle_route(
                network, ca, cb
            )
            expected_path = path if (a, b) == (ca, cb) else path[::-1]
            assert got.path == expected_path
            assert got.propagation_s == propagation
            assert got.transfer_s_per_bit == transfer
            assert got.size_independent == independent


@settings(max_examples=30, deadline=None)
@given(seed=seeds)
def test_compile_all_pairs_matches_oracle_on_random_networks(seed):
    network = random_network(seed)
    router = Router(network)
    router.compile_all_pairs()
    assert_matches_oracle(router, network)


@settings(max_examples=20, deadline=None)
@given(seed=seeds)
def test_lazy_queries_match_oracle_on_random_networks(seed):
    network = random_network(seed)
    router = Router(network)
    rng = random.Random(seed + 1)
    names = list(network.server_names)
    # query in random order and direction: the canonical build rule
    # must make the cache identical no matter who asked first
    pairs = [(a, b) for a in names for b in names if a != b]
    rng.shuffle(pairs)
    for a, b in pairs:
        router.pair_coefficients(a, b)
    assert_matches_oracle(router, network)


@settings(max_examples=20, deadline=None)
@given(seed=seeds)
def test_lazy_fill_runs_each_source_once(seed):
    # a cold pair fills its canonical source's rows, so a full table
    # filled by queries in any order costs what one compile costs
    network = random_network(seed)
    names = list(network.server_names)
    pairs = [(a, b) for a in names for b in names if a != b]
    random.Random(seed + 2).shuffle(pairs)
    lazy = Router(network)
    for a, b in pairs:
        lazy.pair_coefficients(a, b)
    assert lazy.dijkstra_runs <= 2 * (len(names) - 1)
    assert lazy.misses <= len(names) - 1
    compiled = Router(network)
    compiled.compile_all_pairs()
    assert _table(lazy, network) == _table(compiled, network)
    assert_matches_oracle(lazy, network)


def test_compile_matches_oracle_on_abilene():
    network = abilene_network()
    router = Router(network)
    router.compile_all_pairs()
    assert_matches_oracle(router, network)


@settings(max_examples=10, deadline=None)
@given(seed=seeds)
def test_compile_matches_oracle_on_geo(seed):
    # complete heterogeneous graphs: exercises the dense fast path
    network = random_geo_network(3, servers_per_region=2, seed=seed)
    router = Router(network)
    router.compile_all_pairs()
    assert_matches_oracle(router, network)


@settings(max_examples=15, deadline=None)
@given(seed=seeds, size=st.floats(min_value=1.0, max_value=1e9))
def test_sized_paths_match_oracle(seed, size):
    network = random_network(seed)
    router = Router(network)
    names = network.server_names
    for a in names:
        for b in names:
            if a != b:
                assert router.path(a, b, size) == _oracle_sized_path(
                    network, a, b, size
                )


# ----------------------------------------------------------------------
# invalidation equivalence: refreshed == fresh compile
# ----------------------------------------------------------------------
def _table(router, network):
    return {
        (a, b): (
            route.path,
            route.propagation_s,
            route.transfer_s_per_bit,
            route.size_independent,
        )
        for a in network.server_names
        for b in network.server_names
        if a != b
        for route in (router.cached_route(a, b),)
    }


def _mutate(network, rng):
    """One random link change: worsening, speed-only or improvement."""
    link = rng.choice(network.links)
    kind = rng.randrange(3)
    if kind == 0:  # strict worsening: slower and laggier
        speed_factor = rng.uniform(0.2, 0.9)
        prop_factor = rng.uniform(1.0, 2.0)
    elif kind == 1:  # speed-only worsening (propagation untouched)
        speed_factor = rng.uniform(0.2, 0.9)
        prop_factor = 1.0
    else:  # improvement: faster and less laggy
        speed_factor = rng.uniform(1.1, 3.0)
        prop_factor = rng.uniform(0.5, 1.0)
    network.replace_link(
        Link(
            link.a,
            link.b,
            link.speed_bps * speed_factor,
            link.propagation_s * prop_factor,
        )
    )


@settings(max_examples=25, deadline=None)
@given(seed=seeds)
def test_invalidation_equals_fresh_compile(seed):
    rng = random.Random(seed)
    network = random_network(seed)
    router = Router(network)
    router.compile_all_pairs()
    for _ in range(rng.randint(1, 4)):
        _mutate(network, rng)
        router.invalidate()
        fresh = Router(network)
        fresh.compile_all_pairs()
        assert _table(router, network) == _table(fresh, network)


@settings(max_examples=15, deadline=None)
@given(seed=seeds)
def test_invalidation_keeps_sized_queries_exact(seed):
    rng = random.Random(seed)
    network = random_network(seed)
    router = Router(network)
    router.compile_all_pairs()
    names = network.server_names
    sizes = [1e3, 1e6, 1e8]
    for a in names[:3]:
        for b in names[:3]:
            if a != b:
                for size in sizes:
                    router.transmission_time(a, b, size)
    _mutate(network, rng)
    router.invalidate()
    fresh = Router(network)
    for a in names:
        for b in names:
            if a != b:
                for size in sizes:
                    assert router.transmission_time(
                        a, b, size
                    ) == fresh.transmission_time(a, b, size)
