"""Unit tests for the batched all-pairs routing kernel."""

import gc
import random
import weakref

import pytest

from repro.exceptions import DisconnectedNetworkError
from repro.network import apsp
from repro.network.topology import Link, Server, ServerNetwork


def _diamond():
    """S0-S1-S3 fast two-hop vs S0-S2-S3 low-latency two-hop."""
    network = ServerNetwork("diamond")
    network.add_servers([Server(f"S{i}", 1e9) for i in range(4)])
    network.connect("S0", "S1", 1e9, propagation_s=0.010)
    network.connect("S1", "S3", 1e9, propagation_s=0.010)
    network.connect("S0", "S2", 1e6, propagation_s=0.001)
    network.connect("S2", "S3", 1e6, propagation_s=0.001)
    return network


def _complete(speeds=(100e6, 50e6, 25e6)):
    """A complete triangle with heterogeneous link speeds."""
    network = ServerNetwork("triangle")
    network.add_servers([Server(f"S{i}", 1e9) for i in range(3)])
    network.connect("S0", "S1", speeds[0], propagation_s=0.001)
    network.connect("S0", "S2", speeds[1], propagation_s=0.002)
    network.connect("S1", "S2", speeds[2], propagation_s=0.003)
    return network


def _source_routes(graph, source, targets, dense=None):
    """Both rows of *source*, per target ``(slot, path_zero, path_large)``.

    The slot is the pair's classification; the two paths (names) are
    the rows' min-propagation and min-transfer routes. ``(routes, runs)``.
    """
    rows, runs = [], 0
    for weight in (apsp.WEIGHT_PROPAGATION, apsp.WEIGHT_TRANSFER):
        row, ran = apsp.source_row(graph, source, weight, dense)
        rows.append(row)
        runs += ran
    routes = {}
    for target in targets:
        paths = [apsp.row_path(graph, row, source, target) for row in rows]
        routes[target] = (
            apsp.classify_pair(graph, *paths),
            *map(graph.to_names, paths),
        )
    return routes, runs


class TestCompiledGraph:
    def test_snapshot_shape(self):
        graph = apsp.compile_graph(_diamond())
        assert graph.names == ("S0", "S1", "S2", "S3")
        assert len(graph) == 4
        assert not graph.is_complete()
        assert apsp.compile_graph(_complete()).is_complete()

    def test_coefficients_fold_matches_link_params(self):
        network = _diamond()
        graph = apsp.compile_graph(network)
        propagation, transfer = graph.coefficients((0, 1, 3))
        assert propagation == 0.010 + 0.010
        assert transfer == 1.0 / 1e9 + 1.0 / 1e9

    def test_to_names(self):
        graph = apsp.compile_graph(_diamond())
        assert graph.to_names((0, 2, 3)) == ("S0", "S2", "S3")

    def test_one_snapshot_per_generation(self):
        network = _complete()
        graph = apsp.compile_graph(network)
        assert apsp.compile_graph(network) is graph
        assert graph.certificate() is graph.certificate() is not None
        assert (graph.name, graph.generation) == (
            network.name,
            network.generation,
        )
        network.replace_link(Link("S0", "S1", 1e6))
        fresh = apsp.compile_graph(network)
        assert fresh is not graph
        assert fresh.generation == network.generation
        assert fresh.adjacency[0][0] == (1, 0.0, 1e-6, 1e6)
        assert graph.adjacency[0][0] == (1, 0.001, 1e-8, 100e6)

    def test_dropped_network_frees_its_snapshot(self):
        network = _complete()
        graph = apsp.compile_graph(network)
        dropped = weakref.ref(network)
        certificate = weakref.ref(graph.certificate())
        gc.disable()
        try:
            del network, graph
            # freed by reference counting: no cycle through the memo
            assert dropped() is None and certificate() is None
        finally:
            gc.enable()


def _row_path(graph, source, target, weight):
    """*source*'s full-pass row for *weight*, walked to *target*."""
    row, _runs = apsp.source_row(graph, source, weight)
    return apsp.row_path(graph, row, source, target)


class TestDijkstra:
    def test_propagation_weight_prefers_low_latency(self):
        graph = apsp.compile_graph(_diamond())
        path = _row_path(graph, 0, 3, apsp.WEIGHT_PROPAGATION)
        assert graph.to_names(path) == ("S0", "S2", "S3")

    def test_transfer_weight_prefers_fast_links(self):
        graph = apsp.compile_graph(_diamond())
        path = _row_path(graph, 0, 3, apsp.WEIGHT_TRANSFER)
        assert graph.to_names(path) == ("S0", "S1", "S3")

    def test_matches_networkx(self):
        import networkx as nx

        network = _diamond()
        graph = apsp.compile_graph(network)
        g = network.graph

        def prop(a, b, _):
            return network.link(a, b).propagation_s

        for source in range(4):
            for target in range(4):
                if source == target:
                    continue
                expected = tuple(
                    nx.dijkstra_path(
                        g,
                        graph.names[source],
                        graph.names[target],
                        weight=prop,
                    )
                )
                got = graph.to_names(
                    _row_path(graph, source, target, apsp.WEIGHT_PROPAGATION)
                )
                assert got == expected

    def test_disconnected_raises(self):
        network = ServerNetwork("disc")
        network.add_servers([Server("A", 1e9), Server("B", 1e9)])
        graph = apsp.compile_graph(network)
        with pytest.raises(DisconnectedNetworkError):
            _row_path(graph, 0, 1, apsp.WEIGHT_PROPAGATION)

    def test_full_pass_equals_targeted_queries(self):
        graph = apsp.compile_graph(_diamond())
        size = 50_000.0
        paths = apsp.sized_source_paths(graph, 0, [1, 2, 3], size)
        for target in (1, 2, 3):
            assert paths[target] == apsp.shortest_sized_path(
                graph, 0, target, size
            )


class TestClassification:
    def test_dominant_pair_is_size_independent(self):
        graph = apsp.compile_graph(_complete())
        routes, runs = _source_routes(graph, 0, [1, 2])
        assert runs <= 2
        slot, zero, large = routes[1]
        assert slot == graph.coefficients((0, 1))
        assert zero == large == ("S0", "S1")

    def test_size_dependent_pair_keeps_both_paths(self):
        graph = apsp.compile_graph(_diamond())
        routes, _ = _source_routes(graph, 0, [3])
        slot, zero, large = routes[3]
        assert slot == ()
        # the two rows keep both classification paths
        assert zero == ("S0", "S2", "S3")
        assert large == ("S0", "S1", "S3")

    def test_branch_order_is_pinned(self):
        # slow low-latency S0-S2-S3 against fast S0-S1-S3 whose
        # propagation is first higher, then equal
        graph = apsp.compile_graph(_diamond())
        slow, fast = (0, 2, 3), (0, 1, 3)
        assert apsp.classify_pair(graph, fast, fast) == graph.coefficients(fast)
        assert apsp.classify_pair(graph, slow, fast) == ()
        network = _diamond()
        network.replace_link(Link("S0", "S1", 1e9, 0.001))
        network.replace_link(Link("S1", "S3", 1e9, 0.001))
        graph = apsp.compile_graph(network)
        # branch 2: the min-transfer path ties on propagation
        assert apsp.classify_pair(graph, slow, fast) == graph.coefficients(fast)


class TestRows:
    def test_diff_reports_each_changed_weight(self):
        network = _diamond()
        old = apsp.compile_graph(network)
        network.replace_link(Link("S0", "S1", 1e9, 0.020))  # laggier only
        change = apsp.diff_graphs(old, apsp.compile_graph(network))
        assert change.relaxed[apsp.WEIGHT_TRANSFER] == ()
        assert sorted(change.relaxed[apsp.WEIGHT_PROPAGATION]) == [
            (0, 1, 0.020), (1, 0, 0.020),
        ]
        assert change.moved == {(0, 1), (1, 0)}
        assert not change.improved

    def test_diff_marks_removal_infinite_and_readd_reordered(self):
        network = _diamond()
        old = apsp.compile_graph(network)
        link = network.remove_link("S0", "S1")
        removed = apsp.diff_graphs(old, apsp.compile_graph(network))
        assert (0, 1, float("inf")) in removed.relaxed[apsp.WEIGHT_TRANSFER]
        assert not removed.improved
        # re-adding the same link appends it to both adjacency lists:
        # unchanged parameters, but a new relaxation order
        network.add_link(link)
        readded = apsp.diff_graphs(old, apsp.compile_graph(network))
        assert readded.moved == frozenset()
        assert readded.improved
        assert (0, 2, 0.001) in readded.relaxed[apsp.WEIGHT_PROPAGATION]

    def test_row_survives_only_strictly_slower_non_tree_edges(self):
        graph = apsp.compile_graph(_diamond())
        row, _ = apsp.source_row(graph, 0, apsp.WEIGHT_PROPAGATION)
        # S1-S3 is off the min-propagation tree of S0 and stays slower
        assert apsp.row_survives(row, [(1, 3, 0.5), (3, 1, 0.5)])
        # a tie is not enough: ties resolve by push order
        exact = ([0, 1.0, 0.5, 1.5], [-1, 0, 0, 2])
        assert apsp.row_survives(exact, [(2, 1, 0.75)])
        assert not apsp.row_survives(exact, [(2, 1, 0.5)])
        # S0-S2 is a tree edge: any change re-runs the row
        assert not apsp.row_survives(row, [(0, 2, 0.5)])


class TestDenseFastPath:
    def test_dense_requires_complete_graph(self):
        assert apsp.dense_dominance(apsp.compile_graph(_diamond())) is None

    def test_dense_certificate_matches_dijkstra(self):
        pytest.importorskip("numpy")
        graph = apsp.compile_graph(_complete())
        dense = apsp.dense_dominance(graph)
        assert dense is not None
        with_dense, dense_runs = _source_routes(graph, 0, [1, 2], dense)
        without, full_runs = _source_routes(graph, 0, [1, 2])
        assert dense_runs <= full_runs
        assert with_dense == without

    def test_dense_skips_only_dominant_rows(self):
        pytest.importorskip("numpy")
        # S0-S2 relayed via S1 beats the slow direct link: row 0 must
        # NOT be certified for the transfer weight
        network = _complete(speeds=(1e9, 1e6, 1e9))
        graph = apsp.compile_graph(network)
        dense = apsp.dense_dominance(graph)
        assert dense is not None
        assert not dense.row_ok(0, apsp.WEIGHT_TRANSFER)
        routes, _ = _source_routes(graph, 0, [2], dense)
        plain, _ = _source_routes(graph, 0, [2])
        assert routes == plain

    def test_dense_rows_equal_dijkstra_rows(self):
        pytest.importorskip("numpy")
        graph = apsp.compile_graph(_complete())
        dense = apsp.dense_dominance(graph)
        for source in range(3):
            for weight in (apsp.WEIGHT_PROPAGATION, apsp.WEIGHT_TRANSFER):
                row, runs = apsp.source_row(graph, source, weight, dense)
                assert row == apsp._dijkstra(graph, source, weight)
                assert runs == (0 if dense.row_ok(source, weight) else 1)


def _tied_complete(seed, size):
    """A complete graph of dyadic weights: a direct link often ties a
    two-hop relay exactly (``1.0 == 0.5 + 0.5``)."""
    rng = random.Random(seed)
    network = ServerNetwork("tied")
    network.add_servers([Server(f"S{i}", 1e9) for i in range(size)])
    for i in range(size):
        for j in range(i + 1, size):
            network.connect(
                f"S{i}",
                f"S{j}",
                rng.choice((2.0,) * 5 + (1.0,) * 4 + (0.5,)),
                propagation_s=rng.choice((0.5,) * 5 + (1.0,) * 4 + (1.5,)),
            )
    return network


@pytest.mark.parametrize("relays", [None, 1, 3])
@pytest.mark.parametrize("seed", range(4))
def test_blocked_dominance_equals_the_broadcast_form(monkeypatch, seed, relays):
    np = pytest.importorskip("numpy")
    graph = apsp.compile_graph(_tied_complete(seed, 7 + seed))
    n = len(graph)
    if relays is not None:  # blocks of one or a few relays
        monkeypatch.setattr(apsp, "TWO_HOP_BLOCK", relays * n * n)
    dense = apsp.dense_dominance(graph)
    for weight, ok_rows in enumerate(dense.ok_rows):
        weights = np.zeros((n, n))
        for v, row in enumerate(graph.adjacency):
            for edge in row:
                weights[v, edge[0]] = edge[1 + weight]
        two_hop = (weights[:, :, None] + weights[None, :, :]).min(axis=1)
        assert np.array_equal(ok_rows, (weights <= two_hop).all(axis=1))
