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
``Router(copy.deepcopy(network)).compile_all_pairs()``:

* every filled route-table slot (coefficients or ``()``) and every
  size-independent pair's ``path()`` matches;
* every stored row equals a fresh ``_dijkstra`` row, and a source has
  rows exactly when all its canonical slots are filled;
* every surviving per-size entry equals a fresh sized query (from
  either end: entries are stored in both directions);
* the returned set holds, as canonical index pairs, every pair whose
  slot or per-size entries changed.

Routers start either eagerly compiled or lazily filled by queries,
each of which fills its canonical source's rows and pairs.
"""

import copy
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


def assert_fresh(router, before_slots, before_sized, affected):
    # a copy has its own snapshot: a missed generation bump cannot
    # hand the router's stale one to the reference
    fresh = Router(copy.deepcopy(router.network))
    fresh.compile_all_pairs()
    graph = fresh._compiled_graph()
    names = graph.names
    routes = router.route_table()
    for source, rows in router._rows.items():
        for weight, row in enumerate(rows):
            assert row == apsp._dijkstra(graph, source, weight), source
    for i, row in enumerate(routes):
        for j, coeff in enumerate(row):
            if i == j:
                continue
            assert (coeff is not None) == (min(i, j) in router._rows), (i, j)
            if coeff is None:
                continue
            assert coeff == fresh.route_table()[i][j], (i, j)
            if coeff:  # a size-dependent pair's path is per size
                a, b = names[i], names[j]
                assert router.path(a, b) == fresh.path(a, b), (a, b)
    for (i, j, size), path in router._sized.items():
        # entries are stored both ways: the query ran from either end
        forward, backward = (
            apsp.shortest_sized_path(graph, x, y, size)
            for x, y in ((i, j), (j, i))
        )
        assert path in (forward, backward[::-1]), (i, j, size)
    for i, row in enumerate(before_slots):
        for j in range(i + 1, len(row)):
            if row[j] != routes[i][j]:
                assert (i, j) in affected, (i, j)
    for i, j, size in before_sized.keys() - router._sized.keys():
        assert (min(i, j), max(i, j)) in affected, (i, j, size)
    for i, j in affected:
        assert i < j


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
        before_slots = [list(row) for row in router.route_table()]
        before_sized = dict(router._sized)
        apply(network, failed, kind, pick, scale)
        affected = router.invalidate()
        assert_fresh(router, before_slots, before_sized, affected)
