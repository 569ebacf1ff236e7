"""Unit tests for shortest-delivery-time routing."""

import pytest

from repro.core.compiled import CompiledInstance
from repro.exceptions import (
    DisconnectedNetworkError,
    NetworkError,
    UnknownServerError,
)
from repro.network.routing import Router
from repro.network.topology import (
    Link,
    Server,
    ServerNetwork,
    bus_network,
    line_network,
)
from repro.workloads.generator import line_workflow


def assert_same_routes(router, fresh):
    """Slots, the filled sources' rows and every path equal *fresh*'s."""
    assert router.route_table() == fresh.route_table()
    fresh.compile_all_pairs()
    for source, rows in router._rows.items():
        assert rows == fresh._rows[source], source
    names = router.server_names
    for a in names:
        for b in names:
            assert router.path(a, b) == fresh.path(a, b), (a, b)


def _tie_network():
    """S1-S4 ties on propagation via the slow S2 and the fast S3."""
    network = ServerNetwork("tie")
    network.add_servers([Server(f"S{i}", 1e9) for i in range(1, 5)])
    network.connect("S1", "S2", 10e6, propagation_s=0.001)
    network.connect("S1", "S3", 100e6, propagation_s=0.001)
    network.connect("S2", "S4", 10e6, propagation_s=0.001)
    network.connect("S3", "S4", 100e6, propagation_s=0.001)
    return network


class TestBasicRouting:
    def test_same_server_path(self, bus3):
        router = Router(bus3)
        assert router.path("S1", "S1") == ("S1",)
        assert router.transmission_time("S1", "S1", 1e6) == 0.0
        assert router.hop_count("S1", "S1") == 0

    def test_direct_link_on_bus(self, bus3):
        router = Router(bus3)
        assert router.path("S1", "S3", 8_000) == ("S1", "S3")
        assert router.transmission_time("S1", "S3", 8_000) == pytest.approx(
            8_000 / 100e6
        )

    def test_multi_hop_on_line(self, chain3):
        router = Router(chain3)
        assert router.path("S1", "S3", 8_000) == ("S1", "S2", "S3")
        expected = 8_000 / 10e6 + 8_000 / 100e6
        assert router.transmission_time("S1", "S3", 8_000) == pytest.approx(
            expected
        )
        assert router.hop_count("S1", "S3") == 2

    def test_unknown_server_rejected(self, bus3):
        router = Router(bus3)
        with pytest.raises(UnknownServerError):
            router.path("S1", "S9")

    def test_disconnected_pair_rejected(self):
        network = ServerNetwork("disc")
        network.add_servers(
            [Server("S1", 1e9), Server("S2", 1e9), Server("S3", 1e9)]
        )
        network.connect("S1", "S2", 1e6)
        router = Router(network)
        with pytest.raises(DisconnectedNetworkError):
            router.path("S1", "S3")


class TestPropagationDelay:
    def test_propagation_added_per_link(self):
        network = line_network([1e9, 1e9, 1e9], 100e6, propagation_s=0.002)
        router = Router(network)
        expected = 2 * (8_000 / 100e6 + 0.002)
        assert router.transmission_time("S1", "S3", 8_000) == pytest.approx(
            expected
        )

    def test_zero_size_routes_by_propagation(self):
        network = line_network([1e9, 1e9], 100e6, propagation_s=0.001)
        router = Router(network)
        assert router.transmission_time("S1", "S2", 0.0) == pytest.approx(
            0.001
        )


class TestSizeDependentRouting:
    def _detour_network(self):
        """Direct slow link S1-S3 vs a two-hop fast detour via S2."""
        network = ServerNetwork("detour")
        network.add_servers(
            [Server("S1", 1e9), Server("S2", 1e9), Server("S3", 1e9)]
        )
        network.connect("S1", "S3", 1e6)  # slow direct
        network.connect("S1", "S2", 1e9)
        network.connect("S2", "S3", 1e9)
        return network

    def test_large_message_takes_fast_detour(self):
        router = Router(self._detour_network())
        # 1 Mbit: direct = 1 s; detour = 2 * 1 ms
        assert router.path("S1", "S3", 1e6) == ("S1", "S2", "S3")

    def test_route_is_symmetric(self):
        router = Router(self._detour_network())
        forward = router.path("S1", "S3", 1e6)
        backward = router.path("S3", "S1", 1e6)
        assert backward == forward[::-1]
        assert router.transmission_time(
            "S1", "S3", 1e6
        ) == router.transmission_time("S3", "S1", 1e6)


class TestCaching:
    def test_repeated_queries_hit_cache(self, bus3):
        router = Router(bus3)
        first = router.transmission_time("S1", "S2", 8_000)
        assert (router.hits, router.misses) == (0, 1)
        second = router.transmission_time("S1", "S2", 8_000)
        assert first == second
        assert (router.hits, router.misses) == (1, 1)
        assert router.route_table()[0][1] == router.route_table()[1][0]

    def test_colocated_queries_bypass_the_cache(self, bus3):
        router = Router(bus3)
        assert router.transmission_time("S1", "S1", 1000) == 0.0
        assert (router.hits, router.misses) == (0, 0)

    def test_distinct_sizes_hit_the_route_cache(self, bus3):
        # the route is size-independent, so heterogeneous message sizes
        # must reuse the cached pair instead of growing a float-keyed cache
        router = Router(bus3)
        for size in (1_000, 2_000, 3_000, 4_000, 5_000):
            router.transmission_time("S1", "S2", size)
        assert router.misses == 1
        assert router.hits == 4
        assert router.hit_rate == pytest.approx(0.8)

    def test_repeated_pair_coefficients_count_hits(self, bus3):
        # the route-table read of compiled instances and batch kernels:
        # a cold pair is a miss, every later query of it a hit
        router = Router(bus3)
        first = router.pair_coefficients("S1", "S2")
        assert (router.hits, router.misses) == (0, 1)
        assert router.pair_coefficients("S1", "S2") == first
        assert router.pair_coefficients("S2", "S1") == first
        assert (router.hits, router.misses) == (2, 1)
        assert router.pair_coefficients("S1", "S1") == (0.0, 0.0)
        assert (router.hits, router.misses) == (2, 1)

    def test_compiled_pairs_are_coefficient_hits(self, bus3):
        router = Router(bus3)
        router.compile_all_pairs()
        router.pair_coefficients("S1", "S3")
        assert (router.hits, router.misses) == (1, 0)

    def test_times_scale_with_size(self, chain3):
        router = Router(chain3)
        t_small = router.transmission_time("S1", "S3", 1_000)
        t_large = router.transmission_time("S1", "S3", 100_000)
        assert t_large > t_small

    def test_pair_coefficients_match_times(self, chain3):
        router = Router(chain3)
        coefficients = router.pair_coefficients("S1", "S3")
        assert coefficients is not None
        propagation, per_bit = coefficients
        for size in (0, 1_000, 100_000):
            expected = propagation + size * per_bit
            assert router.transmission_time("S1", "S3", size) == pytest.approx(
                expected
            )


class TestCounters:
    def test_reset_counters_zeroes_everything(self, bus3):
        router = Router(bus3)
        router.transmission_time("S1", "S2", 8_000)
        router.invalidate()
        router.reset_counters()
        assert (router.hits, router.misses) == (0, 0)
        assert router.dijkstra_runs == 0
        assert router.pairs_invalidated == 0
        assert router.pairs_recomputed == 0
        assert router.last_invalidation is None
        # caches survive: the next query is still a hit
        router.transmission_time("S1", "S2", 8_000)
        assert (router.hits, router.misses) == (1, 0)


class TestCompileAllPairs:
    def test_compile_fills_every_pair(self, chain3):
        router = Router(chain3)
        compiled = router.compile_all_pairs()
        assert compiled == 3  # canonical pairs of 3 servers
        assert all(None not in row for row in router.route_table())
        # compiled entries serve queries as cache hits
        router.transmission_time("S1", "S3", 8_000)
        assert (router.hits, router.misses) == (1, 0)

    def test_compile_matches_lazy_fill(self, chain3):
        lazy = Router(chain3)
        batched = Router(chain3)
        batched.compile_all_pairs()
        for a in chain3.server_names:
            for b in chain3.server_names:
                if a != b:
                    lazy.pair_coefficients(a, b)
        assert_same_routes(lazy, batched)

    def test_compile_skips_cached_pairs(self, chain3):
        router = Router(chain3)
        # the first query fills S1's source: S1-S2 and S1-S3
        router.pair_coefficients("S1", "S3")
        assert router.compile_all_pairs() == 1

    def test_route_table_reads_do_not_count_traffic(self, bus3):
        router = Router(bus3)
        routes = router.route_table()
        assert routes[0][1] is None
        router.compile_all_pairs()
        assert routes[0][1] is not None
        assert (router.hits, router.misses) == (0, 0)


class TestRouteTable:
    """The index view of the pair cache, written with it in one place."""

    def test_cold_query_fills_every_slot_of_its_source(self):
        network = line_network([1e9] * 4, speeds_bps=[10e6, 100e6, 50e6])
        router = Router(network)
        routes = router.route_table()
        # canonical source S2 owns the pairs (S2, S3) and (S2, S4)
        router.pair_coefficients("S3", "S2")
        assert (router.hits, router.misses) == (0, 1)
        for i, j in ((0, 1), (0, 2), (0, 3), (2, 3)):
            assert routes[i][j] is None and routes[j][i] is None
        for j, name in ((2, "S3"), (3, "S4")):
            coeff = router.pair_coefficients("S2", name)
            assert routes[1][j] == routes[j][1] == coeff
        assert (router.hits, router.misses) == (2, 1)

    def test_resolve_is_a_counted_query(self, bus3):
        router = Router(bus3)
        routes = router.route_table()
        coeff = router.resolve(2, 0)
        assert coeff == routes[0][2] == router.pair_coefficients("S1", "S3")
        assert (router.hits, router.misses) == (1, 1)

    def test_invalidate_rewrites_the_same_table(self):
        network = line_network([1e9] * 3, speeds_bps=[10e6, 100e6])
        router = Router(network)
        routes = router.route_table()
        router.compile_all_pairs()
        network.connect("S1", "S3", 1e9)
        router.invalidate()
        assert router.route_table() is routes
        fresh = Router(network)
        for i in range(3):
            for j in range(3):
                assert routes[i][j] == fresh.resolve(i, j), (i, j)

    def test_connectivity_is_checked_once_when_the_table_is_bound(
        self, bus3, monkeypatch
    ):
        router = Router(bus3)
        calls = []
        monkeypatch.setattr(
            bus3, "require_connected", lambda: calls.append(True)
        )
        for workflow_seed in (1, 2):
            CompiledInstance(
                line_workflow(3, seed=workflow_seed), bus3, router=router
            )
        assert calls == [True]

    def test_disconnected_network_refuses_the_table(self):
        network = ServerNetwork("split")
        network.add_servers([Server(f"S{i}", 1e9) for i in range(1, 4)])
        network.connect("S2", "S3", 100e6)
        router = Router(network)
        assert router.path("S2", "S3") == ("S2", "S3")  # names still route
        with pytest.raises(DisconnectedNetworkError):
            router.route_table()

    def test_changed_server_set_needs_a_new_router(self, bus3):
        router = Router(bus3)
        bus3.add_server(Server("S9", 1e9))
        bus3.connect("S9", "S1", 100e6)
        with pytest.raises(NetworkError, match="use a new Router"):
            router.invalidate()
        with pytest.raises(NetworkError, match="use a new Router"):
            router.path("S1", "S2")
        with pytest.raises(NetworkError, match="use a new Router"):
            router.transmission_time("S9", "S1", 1e3)


class TestInvalidate:
    def _square(self):
        """S1-S2-S4 and S1-S3-S4: two disjoint two-hop routes."""
        network = ServerNetwork("square")
        network.add_servers(
            [Server(f"S{i}", 1e9) for i in range(1, 5)]
        )
        network.connect("S1", "S2", 100e6, propagation_s=0.001)
        network.connect("S2", "S4", 100e6, propagation_s=0.001)
        network.connect("S1", "S3", 50e6, propagation_s=0.003)
        network.connect("S3", "S4", 50e6, propagation_s=0.003)
        return network

    def _assert_matches_fresh(self, router, network):
        fresh = Router(network)
        fresh.compile_all_pairs()
        assert_same_routes(router, fresh)
        return fresh

    def test_unchanged_network_recomputes_nothing(self):
        network = self._square()
        router = Router(network)
        router.compile_all_pairs()
        runs = router.dijkstra_runs
        affected = router.invalidate()
        assert affected == set()
        assert router.dijkstra_runs == runs
        assert router.last_invalidation["changed_links"] == 0
        assert router.last_invalidation["rows_rerun"] == 0
        assert router.pairs_invalidated == 0
        assert router.pairs_recomputed == 0

    def test_scoped_invalidation_recomputes_only_crossing_pairs(self):
        network = self._square()
        router = Router(network)
        router.compile_all_pairs()
        # worsen the S1-S2 trunk: only routes through it are touched
        network.replace_link(
            Link("S1", "S2", 10e6, 0.001)
        )
        affected = router.invalidate()
        assert affected
        # the S3-S4 pair rides its own direct link: untouched
        assert (2, 3) not in affected and (3, 2) not in affected
        assert router.last_invalidation["changed_links"] == 1
        # the refreshed table equals a fresh router's exactly
        self._assert_matches_fresh(router, network)

    def test_reclassified_pair_with_an_unchanged_route_is_not_invalidated(
        self,
    ):
        # S1-S4 ties on propagation via the slow S2 and the fast S3:
        # its propagation row runs through S2, its route through S3
        network = _tie_network()
        router = Router(network)
        router.compile_all_pairs()
        coeff = router.pair_coefficients("S1", "S4")
        assert router.path("S1", "S4") == ("S1", "S3", "S4")
        assert router.path("S2", "S3") == ("S2", "S1", "S3")
        network.replace_link(Link("S1", "S2", 5e6, 0.001))
        affected = router.invalidate()
        # S1-S4 is reclassified (its row crosses the slowed link) but
        # keeps its route, so it is not reported as changed
        assert router.pair_coefficients("S1", "S4") == coeff
        assert router.path("S1", "S4") == ("S1", "S3", "S4")
        # S2-S3 re-routes from the S1 relay to the S4 relay, whose
        # coefficients are the same floats: its slot, and every price
        # read from it, stands, so it is not reported either
        assert router.path("S2", "S3") == ("S2", "S4", "S3")
        assert affected == {(0, 1)}
        assert router.pairs_invalidated == len(affected)
        assert router.pairs_recomputed == 3
        assert router.last_invalidation["pairs_invalidated"] == 1
        assert router.last_invalidation["pairs_recomputed"] == 3
        self._assert_matches_fresh(router, network)

    def test_improvement_reroutes_only_changed_pairs(self):
        network = self._square()
        router = Router(network)
        router.compile_all_pairs()
        # upgrade the slow S1-S3 link fourfold
        network.replace_link(Link("S1", "S3", 200e6, 0.003))
        routes = router.route_table()
        before = [list(row) for row in routes]
        runs_before = router.dijkstra_runs
        affected = router.invalidate()
        runs = router.dijkstra_runs - runs_before
        fresh = self._assert_matches_fresh(router, network)
        changed = {
            (i, j)
            for i in range(4)
            for j in range(i + 1, 4)
            if before[i][j] != routes[i][j]
        }
        # S1-S3 rides the upgraded link, S2-S3 now re-routes over it
        assert changed == {(0, 2), (1, 2)}
        assert affected == changed  # only the re-routed pairs
        # a speed-only upgrade re-runs min-transfer passes only
        assert runs == router.last_invalidation["rows_rerun"] == 3
        assert runs < fresh.dijkstra_runs

    def test_speed_only_worsening_reuses_propagation_passes(self):
        # a speed-only degrade leaves the propagation graph unchanged:
        # no caller flag says so, the router's own diff does -- every
        # min-propagation row survives and no propagation pass runs
        network = self._square()
        router = Router(network)
        router.compile_all_pairs()
        propagation_rows = {
            source: rows[0] for source, rows in router._rows.items()
        }
        runs_before = router.dijkstra_runs
        network.replace_link(Link("S1", "S2", 10e6, 0.001))
        router.invalidate()
        assert router.dijkstra_runs - runs_before > 0
        assert router.dijkstra_runs - runs_before == (
            router.last_invalidation["rows_rerun"]
        )
        for source, rows in router._rows.items():
            assert rows[0] is propagation_rows[source]
        self._assert_matches_fresh(router, network)

    def test_removed_keywords_raise_type_error(self):
        network = self._square()
        router = Router(network)
        compiled = CompiledInstance(line_workflow(3, seed=0), network)
        for keyword in (
            "changed_links", "worsening", "speed_changed",
            "propagation_changed",
        ):
            with pytest.raises(TypeError):
                router.invalidate(**{keyword: True})
            with pytest.raises(TypeError):
                compiled.invalidate_routes(**{keyword: True})

    def test_invalidation_preserves_traffic_counters(self):
        network = self._square()
        router = Router(network)
        router.transmission_time("S1", "S4", 8_000)
        hits, misses = router.hits, router.misses
        network.replace_link(Link("S1", "S2", 10e6, 0.001))
        router.invalidate()
        assert (router.hits, router.misses) == (hits, misses)

    def test_scoped_invalidation_reports_sized_only_pairs(
        self, pareto_triple
    ):
        # regression: a size-dependent pair's per-size optimum can be a
        # third Pareto path crossing the worsened link while both
        # classification paths avoid it -- the pair must appear in the
        # returned set so consumers re-derive its cached per-size
        # prices instead of restoring the stale (too optimistic) ones
        router = Router(pareto_triple)
        router.compile_all_pairs()
        before = router.transmission_time("A", "B", 5e6)
        assert before == pytest.approx(6.5)  # via z
        pareto_triple.replace_link(Link("A", "z", 1e3, 50.0))
        affected = router.invalidate()
        # both classification paths (via x, via y) avoid A-z, yet the
        # pair is reported because its per-size entry was dropped
        assert (0, 4) in affected
        assert router.last_invalidation["sized_pairs_dropped"] == 1
        # the classification slot itself stood (it was never stale)
        assert router.route_table()[0][4] == ()
        # the re-derived per-size price equals a fresh router's exactly
        fresh = Router(pareto_triple)
        after = router.transmission_time("A", "B", 5e6)
        assert after == fresh.transmission_time("A", "B", 5e6)
        assert after == pytest.approx(10.01)  # re-routed via y

    def test_scoped_invalidation_off_path_sized_entries_survive(
        self, pareto_triple
    ):
        # the complement: worsening a link that no cached sized path
        # crosses reports nothing extra and keeps the sized cache warm
        router = Router(pareto_triple)
        router.compile_all_pairs()
        router.transmission_time("A", "B", 5e6)  # sized entry via z
        pareto_triple.replace_link(Link("A", "y", 1e8, 6.0))
        router.invalidate()
        assert router.last_invalidation["sized_pairs_dropped"] == 0
        hits = router.hits
        assert router.transmission_time("A", "B", 5e6) == pytest.approx(6.5)
        assert router.hits == hits + 1  # served from the kept entry


class TestPathRebuild:
    def test_min_transfer_route_when_propagation_ties(self):
        # S1-S4 ties on propagation via the slow S2 (first in adjacency
        # order, so the propagation row's path) and the fast S3: the
        # slot is the min-transfer path's, and so is the route
        network = _tie_network()
        router = Router(network)
        assert router.path("S1", "S4") == ("S1", "S3", "S4")
        assert router.path("S4", "S1") == ("S4", "S3", "S1")
        assert router._rows[0][0][1][3] == 1  # propagation row: via S2
        assert router.pair_coefficients("S1", "S4") == (
            0.002, 1 / 100e6 + 1 / 100e6
        )

    def test_reverse_query_walks_the_canonical_route_backwards(self, chain3):
        router = Router(chain3)
        assert router.path("S3", "S1") == ("S3", "S2", "S1")
        assert router.hop_count("S3", "S1") == 2
        assert list(router._rows) == [0]  # filled from canonical S1


class TestPerSizeStore:
    def test_entries_are_index_keyed_both_ways(self, pareto_triple):
        router = Router(pareto_triple)
        path = router.path("B", "A", 5e6)
        assert path == ("B", "z", "A")
        assert router._sized == {(4, 0, 5e6): (4, 3, 0), (0, 4, 5e6): (0, 3, 4)}
        hits = router.hits
        assert router.path("A", "B", 5e6) == path[::-1]
        assert router.hits == hits + 1

    def test_retain_keeps_only_the_given_sizes(self, pareto_triple):
        router = Router(pareto_triple)
        for size in (1e3, 5e6, 1e8):
            router.transmission_time("A", "B", size)
        router.retain({5e6})
        assert set(router._sized) == {(0, 4, 5e6), (4, 0, 5e6)}
        # a dropped size is priced again, equal to a fresh router's
        misses, runs = router.misses, router.dijkstra_runs
        fresh = Router(pareto_triple)
        for size in (1e3, 1e8):
            assert router.transmission_time(
                "A", "B", size
            ) == fresh.transmission_time("A", "B", size)
        assert router.misses == misses + 2
        assert router.dijkstra_runs == runs + 2


class TestBulkTransmissionTimes:
    def test_bulk_equals_sequential(self):
        network = ServerNetwork("detour")
        network.add_servers(
            [Server("S1", 1e9), Server("S2", 1e9), Server("S3", 1e9)]
        )
        network.connect("S1", "S3", 1e6, propagation_s=0.0001)
        network.connect("S1", "S2", 1e9, propagation_s=0.001)
        network.connect("S2", "S3", 1e9, propagation_s=0.001)
        pairs = [
            (a, b)
            for a in network.server_names
            for b in network.server_names
        ]
        for size in (0.0, 1_000.0, 1e6):
            sequential = Router(network)
            expected = [
                sequential.transmission_time(a, b, size) for a, b in pairs
            ]
            bulk = Router(network)
            got = bulk.transmission_times(pairs, size)
            assert got == expected  # exact float equality
            # grouping must not run more passes than the sequential path
            assert bulk.dijkstra_runs <= sequential.dijkstra_runs

    def test_bulk_counters_match_sequential(self):
        # regression: both directions of an uncached size-dependent
        # pair in one batch counted two misses at queue time, although
        # the second direction resolves from the first's
        # reverse-direction store -- sequentially, a hit
        network = ServerNetwork("detour")
        network.add_servers(
            [Server("S1", 1e9), Server("S2", 1e9), Server("S3", 1e9)]
        )
        network.connect("S1", "S3", 1e6, propagation_s=0.0001)
        network.connect("S1", "S2", 1e9, propagation_s=0.001)
        network.connect("S2", "S3", 1e9, propagation_s=0.001)
        pairs = [("S1", "S3"), ("S3", "S1"), ("S1", "S3")]
        sequential = Router(network)
        expected = [
            sequential.transmission_time(a, b, 1_000.0) for a, b in pairs
        ]
        bulk = Router(network)
        assert bulk.transmission_times(pairs, 1_000.0) == expected
        assert (bulk.hits, bulk.misses) == (
            sequential.hits,
            sequential.misses,
        )

    def test_bulk_groups_sized_misses_per_source(self, bus3):
        router = Router(bus3)
        times = router.transmission_times(
            [("S1", "S2"), ("S1", "S3"), ("S2", "S3")], 8_000
        )
        assert len(times) == 3
        assert all(t > 0 for t in times)


def test_bus_pairs_share_cost(bus3):
    """The paper's bus assumption: every pair costs the same."""
    router = Router(bus3)
    times = {
        router.transmission_time(a, b, 10_000)
        for a in bus3.server_names
        for b in bus3.server_names
        if a != b
    }
    assert len(times) == 1


def test_router_exposes_network(bus3):
    assert Router(bus3).network is bus3
