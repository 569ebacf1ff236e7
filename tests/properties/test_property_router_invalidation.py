"""Property test: ``Router.invalidate()`` equals a fresh compile, bit for bit.

The router keeps one full-pass Dijkstra *row* per canonical source and
weight and, on every link change, re-runs only the rows a changed edge
could alter (DESIGN.md §15). This suite drives random sequences of link
failures, restores and degrades of every polarity -- including the two
mixed ones, faster-but-laggier and slower-but-snappier -- over sparse
mixed-speed networks shaped like the ``links`` benchmark fleet: a
random spanning tree plus extra links, 10M/100M/1G speeds and spread
propagation delays, so most pairs are size-dependent. After *every*
``invalidate()`` it asserts, against a fresh
``Router(network).compile_all_pairs()``:

* the route table (paths, coefficients, classification) matches;
* every stored row equals a fresh ``_dijkstra`` row, and a source has
  rows exactly when all its canonical pairs are cached;
* every surviving per-size entry equals a fresh sized query (from
  either end: entries are stored in both directions);
* the returned set holds every canonical pair whose cached route or
  per-size entries changed.

Routers start either eagerly compiled or lazily filled by queries,
each of which fills its canonical source's rows and pairs.
"""

import random

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.network import apsp
from repro.network.routing import Router
from repro.network.topology import Link, random_network

#: ``kind -> (speed_factor, propagation_factor)`` of a drawn scale in
#: (0, 1): every degrade polarity, the two mixed ones included.
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

SIZES = (1e3, 1e6, 1e8)

steps = st.lists(
    st.tuples(
        st.sampled_from(("fail", "restore", *DEGRADES)),
        st.integers(min_value=0, max_value=10_000),
        st.sampled_from((0.25, 0.5, 0.8)),
    ),
    min_size=1,
    max_size=8,
)


def make_network(seed):
    rng = random.Random(seed)
    network = random_network(
        [1e9] * rng.randint(8, 14),
        (10e6, 100e6, 1e9),
        extra_edge_probability=0.2,
        rng=rng,
        name="sparse",
    )
    for link in network.links:
        network.replace_link(
            Link(link.a, link.b, link.speed_bps, rng.choice((1e-4, 1e-3, 1e-2)))
        )
    return network


def apply(network, failed, kind, pick, scale):
    """One link event on *network*; a disconnecting failure is undone."""
    links = network.links
    if kind == "restore":
        if failed:
            network.add_link(failed.pop(pick % len(failed)))
        return
    link = links[pick % len(links)]
    if kind == "fail":
        network.remove_link(link.a, link.b)
        if network.is_connected():
            failed.append(link)
        else:  # the fleet's rollback: re-added, so reordered adjacency
            network.add_link(link)
        return
    speed, propagation = DEGRADES[kind](scale)
    network.replace_link(
        Link(
            link.a,
            link.b,
            link.speed_bps * speed,
            link.propagation_s * propagation,
        )
    )


def warm_sized(router, rng):
    names = router.network.server_names
    for _ in range(6):
        a, b = rng.sample(names, 2)
        for size in SIZES:
            router.transmission_time(a, b, size)


def canonical(graph, a, b):
    return (a, b) if graph.index[a] < graph.index[b] else (b, a)


def assert_fresh(router, before_routes, before_sized, affected):
    network = router.network
    fresh = Router(network)
    fresh.compile_all_pairs()
    graph = fresh._compiled_graph()
    names = graph.names
    for (a, b), route in router._route_cache.items():
        assert route == fresh.cached_route(a, b), (a, b)
    for source, rows in router._rows.items():
        for weight, row in enumerate(rows):
            assert row == apsp._dijkstra(graph, source, weight), source
    for source in range(len(names) - 1):
        filled = {
            (names[source], names[target]) in router._route_cache
            for target in range(source + 1, len(names))
        }
        assert filled == {source in router._rows}, source
    for (a, b, size), path in router._sized_path_cache.items():
        # entries are stored both ways: the query ran from either end
        forward, backward = (
            graph.to_names(
                apsp.shortest_sized_path(
                    graph, graph.index[x], graph.index[y], size
                )
            )
            for x, y in ((a, b), (b, a))
        )
        assert path in (forward, backward[::-1]), (a, b, size)
    for (a, b), route in before_routes.items():
        if route != router._route_cache.get((a, b)):
            assert canonical(graph, a, b) in affected, (a, b)
    for a, b, size in before_sized.keys() - router._sized_path_cache.keys():
        assert canonical(graph, a, b) in affected, (a, b, size)
    for a, b in affected:
        assert graph.index[a] < graph.index[b]


@settings(max_examples=40, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=10_000),
    eager=st.booleans(),
    events=steps,
)
def test_every_invalidation_equals_a_fresh_compile(seed, eager, events):
    network = make_network(seed)
    rng = random.Random(seed)
    router = Router(network)
    if eager:
        router.compile_all_pairs()
    else:
        for _ in range(8):
            router.pair_coefficients(*rng.sample(network.server_names, 2))
    failed = []
    for kind, pick, scale in events:
        warm_sized(router, rng)
        before_routes = dict(router._route_cache)
        before_sized = dict(router._sized_path_cache)
        apply(network, failed, kind, pick, scale)
        affected = router.invalidate()
        assert_fresh(router, before_routes, before_sized, affected)
