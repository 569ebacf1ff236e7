"""Message routing over a server network.

``Path(s, s')`` in Table 1 is the route a message follows between two
servers, and ``Tcomm`` sums transmission plus propagation time along that
route. On the paper's topologies routes are trivial (a bus connects every
pair directly, a line has a unique path), but the router works on any
connected network by picking the route that minimises total delivery time
for the given message size -- which can depend on the size: a large
message may prefer a longer path of fast links over a short path with a
slow hop.

The delivery time of a fixed path is affine in the message size::

    time(path, size) = sum(propagation) + size * sum(1/speed)

so a path that simultaneously minimises both coefficients is optimal for
*every* message size. The router detects that (very common) case when
it classifies a server pair and caches the two coefficients per
``(source, target)`` -- after which any message size is answered in O(1)
without touching Dijkstra and without growing the cache. Only genuinely
size-dependent pairs (a short slow path versus a long fast one, where
neither dominates) fall back to a bounded per-size cache.

Pair classification runs on the compiled kernel in
:mod:`repro.network.apsp` -- integer-indexed adjacency with precomputed
weights, networkx-faithful tie-breaking -- from per-source *rows*. Each
pair is built in canonical direction: the endpoint that comes first in
the network's server order is the source, and the first query for any
of its pairs runs that source's two single-source passes and classifies
every pair of the source from them. Lazy queries and
:meth:`Router.compile_all_pairs` therefore take the same path: a full
table costs at most ``2 * (S - 1)`` passes (fewer when the dense fast
path certifies rows of a complete graph), and the cached coefficients
are bit-identical no matter which query arrived first.

The router is the *single owner of path selection*: every route-delay
consumer -- the compiled instances (and through them ``CostModel``/
``MoveEvaluator``/``BatchEvaluator``), the simulator, the fleet --
reads paths and affine coefficients from here, over arbitrary weighted
graphs with heterogeneous per-link speeds and propagation delays.
Nothing downstream assumes a uniform bus or a line; those are just the
easy special cases. The router keeps each classified pair in one store
with two views: the name-keyed cache behind the queries above and the
index-keyed route table (:meth:`Router.route_table`), which every
:class:`~repro.core.compiled.CompiledInstance` on the router borrows,
so a fleet of tenants reads each pair once instead of once per tenant.

Cache effectiveness is observable through :attr:`Router.hits` /
:attr:`Router.misses` / :attr:`Router.hit_rate`; recompute effort
through :attr:`Router.dijkstra_runs`, :attr:`Router.pairs_invalidated`,
:attr:`Router.pairs_recomputed` and :attr:`Router.last_invalidation`.
Link parameters may change at runtime (the fleet's link
failure/degradation events); :meth:`Router.invalidate` is the one
refresh hook: it re-runs only the single-source passes a changed edge
could alter, for any kind of change (DESIGN.md §15), rewriting the
route table's slots in place. A server change needs a new router.

Between mutations the network is treated as frozen.
"""

from __future__ import annotations

from repro.exceptions import NetworkError
from repro.network import apsp
from repro.network.topology import ServerNetwork

__all__ = ["Router"]

#: Per-size fallback entries kept for size-*dependent* server pairs
#: before the oldest half is evicted (bounds memory on adversarial
#: workloads; size-independent pairs never consume these entries).
SIZED_CACHE_LIMIT = 4096


class Router:
    """Shortest-delivery-time routing with per-pair memoisation.

    Parameters
    ----------
    network:
        The server network to route over. The router snapshots the
        topology lazily on first query (into a
        :class:`repro.network.apsp.CompiledGraph`) and assumes links do
        not change until :meth:`invalidate`. Its server set is fixed:
        a changed one needs a new router.

    Attributes
    ----------
    server_names, server_index:
        Server names in network order and the name -> index map; the
        route table's indices.
    dense:
        The batch kernel's dense matrices over the route table
        (:class:`repro.core.batch.DenseRoutes`), built on first use and
        refreshed in place by :meth:`invalidate`; ``None`` before.
    hits, misses:
        Cache counters over non-co-located :meth:`transmission_time`,
        :meth:`pair_coefficients` and :meth:`path` queries (and their
        bulk forms): a *hit* is answered from the per-pair (or
        per-size fallback) cache, a *miss* fills the pair's source (or
        runs a per-size pass).
    dijkstra_runs:
        Cumulative single-source Dijkstra passes executed (source
        fills, per-size fallbacks and invalidation re-runs alike) --
        the unit of routing work the benchmarks compare.
    pairs_invalidated:
        Cumulative count over :meth:`invalidate` calls of the canonical
        pairs reported as changed (the returned sets: a changed route,
        dropped per-size entries, or every size-dependent pair after an
        eviction) -- what the dense matrices and consumers re-derive.
    pairs_recomputed:
        Cumulative count over :meth:`invalidate` calls of the cached
        pairs reclassified from their source's rows (a pair whose path
        changed or crosses a changed link), whether or not the route
        came out different.
    last_invalidation:
        A summary dict of the most recent :meth:`invalidate` call
        (``changed_links``/``rows_rerun``/``pairs_invalidated``/
        ``pairs_recomputed``/``sized_pairs_dropped``/``dijkstra_runs``),
        or ``None``.
    """

    def __init__(self, network: ServerNetwork):
        self._network = network
        self._graph: apsp.CompiledGraph | None = None
        # the snapshot's dense certificate, built on its first use
        self._certificate: object | None = None
        self.server_names: tuple[str, ...] = network.server_names
        self.server_index: dict[str, int] = {
            name: i for i, name in enumerate(self.server_names)
        }
        count = len(self.server_names)
        # routes[i][j]: the index view of the pair cache, written with it
        # by _store; co-located pairs are free at any size
        self._routes: list[list[tuple[float, float] | tuple[()] | None]] = [
            [None] * count for _ in range(count)
        ]
        for i in range(count):
            self._routes[i][i] = (0.0, 0.0)
        # the connectivity check runs once, when the table is first bound
        self._connected = False
        self.dense = None
        self._route_cache: dict[tuple[str, str], apsp.PairRoute] = {}
        self._sized_path_cache: dict[tuple[str, str, float], tuple[str, ...]] = {}
        # canonical source index -> its (min-propagation, min-transfer)
        # rows; a source has rows exactly when its pairs are cached
        self._rows: dict[int, tuple[apsp.Row, apsp.Row]] = {}
        # set when per-size entries were evicted since the last refresh
        self._sized_evicted = False
        self.hits = 0
        self.misses = 0
        self.dijkstra_runs = 0
        self.pairs_invalidated = 0
        self.pairs_recomputed = 0
        self.last_invalidation: dict[str, object] | None = None

    @property
    def network(self) -> ServerNetwork:
        """The network this router operates on."""
        return self._network

    @property
    def hit_rate(self) -> float:
        """Fraction of non-co-located queries served from the cache."""
        total = self.hits + self.misses
        return self.hits / total if total else 0.0

    # ------------------------------------------------------------------
    # compiled-graph plumbing
    # ------------------------------------------------------------------
    def _compiled_graph(self) -> apsp.CompiledGraph:
        graph = self._graph
        if graph is None:
            graph = self._graph = self._snapshot()
        return graph

    def _snapshot(self) -> apsp.CompiledGraph:
        """A fresh snapshot of the network, over this router's servers."""
        graph = apsp.compile_graph(self._network)
        if graph.names != self.server_names:
            raise NetworkError(
                f"{self._network.name!r} changed servers: use a new Router"
            )
        return graph

    def _store(self, si: int, ti: int, route: apsp.PairRoute) -> None:
        """The one write of a classified canonical pair ``(si, ti)``.

        Fills the name cache in both directions and the route table's
        two slots: the affine coefficients, or ``()`` for a
        size-dependent pair (answered per size).
        """
        a, b = self.server_names[si], self.server_names[ti]
        self._route_cache[(a, b)] = route
        # symmetric network: the reverse path is optimal in reverse,
        # with the *same* coefficient floats
        self._route_cache[(b, a)] = route.reversed()
        coeff = (
            (route.propagation_s, route.transfer_s_per_bit)
            if route.size_independent
            else ()
        )
        self._routes[si][ti] = self._routes[ti][si] = coeff

    def _route(self, source: str, target: str) -> apsp.PairRoute:
        """The pair's route, built on a miss; counts the query.

        A size-dependent pair's hit is left to its per-size query.
        """
        route = self._route_cache.get((source, target))
        if route is None:
            self._network.server(source)
            self._network.server(target)
            self.misses += 1
            route = self._build_route(source, target)
        elif route.size_independent:
            self.hits += 1
        return route

    def _build_route(self, source: str, target: str) -> apsp.PairRoute:
        """Classify the (source, target) pair on its first query.

        The pair's canonical source (the endpoint that comes first in
        network server order) is filled (:meth:`_fill_source`), which
        classifies this pair and every other pair of that source, so a
        later query from the same source is a hit.
        """
        index = self._compiled_graph().index
        try:
            self._fill_source(min(index[source], index[target]))
        except apsp.DisconnectedNetworkError as error:
            raise apsp.DisconnectedNetworkError(
                f"cannot route {source!r} to {target!r}: {error}"
            ) from None
        return self._route_cache[(source, target)]

    def _sized_path(self, source: str, target: str, size_bits: float) -> tuple[str, ...]:
        """Per-size fallback for size-dependent pairs (bounded cache)."""
        key = (source, target, size_bits)
        cached = self._sized_path_cache.get(key)
        if cached is not None:
            self.hits += 1
            return cached
        self.misses += 1
        graph = self._compiled_graph()
        index = graph.index
        path = graph.to_names(
            apsp.shortest_sized_path(graph, index[source], index[target], size_bits)
        )
        self.dijkstra_runs += 1
        self._store_sized(key, path)
        return path

    def _store_sized(
        self, key: tuple[str, str, float], path: tuple[str, ...]
    ) -> None:
        """Cache one sized path (both directions, bounded)."""
        if len(self._sized_path_cache) >= SIZED_CACHE_LIMIT:
            # drop the oldest half; simple and O(1) amortised
            for stale in list(self._sized_path_cache)[: SIZED_CACHE_LIMIT // 2]:
                del self._sized_path_cache[stale]
            self._sized_evicted = True
        source, target, size_bits = key
        self._sized_path_cache[key] = path
        self._sized_path_cache[(target, source, size_bits)] = path[::-1]

    def _sized_time(self, path: tuple[str, ...], size_bits: float) -> float:
        graph = self._graph
        index = graph.index
        propagation, transfer = graph.coefficients(
            tuple(index[name] for name in path)
        )
        return propagation + size_bits * transfer

    # ------------------------------------------------------------------
    # public queries
    # ------------------------------------------------------------------
    def path(self, source: str, target: str, size_bits: float = 0.0) -> tuple[str, ...]:
        """``Path(s, s')``: server names along the fastest route.

        A message of zero size is routed by propagation delay alone (with
        hop count as the tie-breaker via Dijkstra's behaviour). Source and
        target equal yields the single-element path ``(source,)``.
        """
        self._network.server(source)
        self._network.server(target)
        if source == target:
            return (source,)
        route = self._route(source, target)
        if route.size_independent:
            return route.path
        return self._sized_path(source, target, size_bits)

    def transmission_time(
        self, source: str, target: str, size_bits: float
    ) -> float:
        """``Ttrans`` along the best path: sum of per-link size/speed + Trefl.

        Zero when source and target coincide (co-located operations talk
        through local memory, the paper's key lever for saving cost).
        Size-independent pairs are answered from the cached affine
        coefficients in O(1) regardless of how many distinct message
        sizes are queried.
        """
        if source == target:
            return 0.0
        route = self._route(source, target)
        if route.size_independent:
            return route.time(size_bits)
        path = self._sized_path(source, target, size_bits)
        return self._sized_time(path, size_bits)

    def transmission_times(
        self, pairs: list[tuple[str, str]], size_bits: float
    ) -> list[float]:
        """:meth:`transmission_time` for many pairs at one message size.

        Returns the delivery times in input order, byte-identical to
        per-pair calls made in the same order -- but the sized-Dijkstra
        fallbacks of size-dependent pairs are *grouped*: one full
        single-source sized pass per distinct source answers every
        queried target at once, instead of one targeted run per pair.
        (A full pass finalises exactly the paths the targeted runs
        would; the early break only stops sooner.) The hit/miss
        counters match the sequential calls too: a queued pair that an
        earlier queued pair's (reverse-direction) store would have
        answered is counted as the cache hit it would have been. This
        is the bulk entry point
        :class:`~repro.core.batch.BatchEvaluator` uses to fill and
        refresh its dense per-size delay matrices.
        """
        times: list[float] = [0.0] * len(pairs)
        queued: dict[str, list[tuple[int, str]]] = {}
        queued_keys: set[tuple[str, str]] = set()
        for slot, (source, target) in enumerate(pairs):
            if source == target:
                continue
            route = self._route(source, target)
            if route.size_independent:
                times[slot] = route.time(size_bits)
                continue
            cached = self._sized_path_cache.get((source, target, size_bits))
            if cached is not None:
                self.hits += 1
                times[slot] = self._sized_time(cached, size_bits)
            else:
                # counters are settled here, in query order: if this
                # pair (either direction) is already queued, a
                # sequential call at this position would be answered
                # from the earlier miss's store -- a hit
                if (source, target) in queued_keys:
                    self.hits += 1
                else:
                    self.misses += 1
                    queued_keys.add((source, target))
                    queued_keys.add((target, source))
                queued.setdefault(source, []).append((slot, target))
        if not queued:
            return times
        graph = self._compiled_graph()
        index = graph.index
        for source, wanted in queued.items():  # insertion (= query) order
            pending: list[tuple[int, str]] = []
            for slot, target in wanted:
                # an earlier group's reverse-direction store may already
                # have answered this pair, exactly as a sequential query
                # after it would have hit the cache (already counted as
                # a hit at queue time above)
                path = self._sized_path_cache.get((source, target, size_bits))
                if path is not None:
                    times[slot] = self._sized_time(path, size_bits)
                else:
                    pending.append((slot, target))
            if not pending:
                continue
            paths = apsp.sized_source_paths(
                graph,
                index[source],
                [index[target] for _slot, target in pending],
                size_bits,
            )
            self.dijkstra_runs += 1
            for slot, target in pending:
                path = graph.to_names(paths[index[target]])
                self._store_sized((source, target, size_bits), path)
                times[slot] = self._sized_time(path, size_bits)
        return times

    def pair_coefficients(
        self, source: str, target: str
    ) -> tuple[float, float] | None:
        """``(propagation_s, transfer_s_per_bit)`` for a size-independent pair.

        The per-server-pair transmission-time table entry shared with the
        incremental move evaluator: ``time = a + b * size`` for every
        message size. Returns ``None`` for size-dependent pairs (the
        caller must fall back to :meth:`transmission_time`). Co-located
        pairs are ``(0.0, 0.0)``. Counted like :meth:`transmission_time`:
        a cold pair is a miss, a cached size-independent pair a hit (a
        size-dependent pair is counted by the per-size fallback query).
        """
        if source == target:
            return (0.0, 0.0)
        route = self._route(source, target)
        if route.size_independent:
            return (route.propagation_s, route.transfer_s_per_bit)
        return None

    def cached_route(self, source: str, target: str) -> apsp.PairRoute | None:
        """The cached entry for a pair, without counting a query."""
        return self._route_cache.get((source, target))

    def route_table(self) -> list[list[tuple[float, float] | tuple[()] | None]]:
        """The index-keyed route table every compiled instance borrows.

        ``routes[i][j]``, over :attr:`server_names`, holds the pair's
        affine ``(propagation_s, transfer_s_per_bit)`` coefficients,
        ``()`` for a size-dependent pair (answered per size) or ``None``
        until the pair's source is filled (:meth:`resolve`); co-located
        pairs are ``(0.0, 0.0)``. The same lists for the router's
        lifetime: every classification, :meth:`invalidate` included,
        rewrites their slots in place. The first call checks that the
        network is connected.
        """
        if not self._connected:
            self._network.require_connected()
            self._connected = True
        return self._routes

    def resolve(self, source: int, target: int) -> tuple:
        """Fill an unresolved route-table slot; return its coefficients.

        A counted query (:meth:`pair_coefficients`): a cold pair fills
        its canonical source, and with it every slot of that source's
        row and column.
        """
        names = self.server_names
        self.pair_coefficients(names[source], names[target])
        return self._routes[source][target]

    def hop_count(self, source: str, target: str, size_bits: float = 0.0) -> int:
        """Number of links on the chosen route (0 when co-located)."""
        return len(self.path(source, target, size_bits)) - 1

    def cache_size(self) -> int:
        """Number of cached route entries (pairs plus sized fallbacks)."""
        return len(self._route_cache) + len(self._sized_path_cache)

    # ------------------------------------------------------------------
    # batched compilation and invalidation
    # ------------------------------------------------------------------
    def compile_all_pairs(self) -> int:
        """Eagerly classify every server pair; returns pairs compiled.

        Fills every canonical source that has no rows yet, exactly as
        its first query would: at most two single-source Dijkstra passes
        per source (the dense direct-dominance certificate skips whole
        passes on complete graphs). Already-filled sources are kept.
        """
        return sum(
            self._fill_source(si) for si in range(len(self._compiled_graph()) - 1)
        )

    def _fill_source(self, si: int) -> int:
        """Classify every pair ``(si, ti > si)`` from the source's rows.

        The one route-build path. The two rows are kept for
        :meth:`invalidate`; nothing is stored when a target is
        unreachable. Returns the pairs classified (0 for a source that
        is already filled).
        """
        if si in self._rows:
            return 0
        rows = (
            self._source_row(si, apsp.WEIGHT_PROPAGATION),
            self._source_row(si, apsp.WEIGHT_TRANSFER),
        )
        first = si + 1
        routes = [
            self._classify(si, ti, rows)
            for ti in range(first, len(self.server_names))
        ]
        self._rows[si] = rows
        for ti, route in enumerate(routes, start=first):
            self._store(si, ti, route)
        return len(routes)

    def _source_row(self, source: int, weight: int) -> apsp.Row:
        """One full pass of the snapshot (or its dense certificate)."""
        if self._certificate is None:
            self._certificate = apsp.dense_dominance(self._graph) or False
        row, runs = apsp.source_row(
            self._graph, source, weight, self._certificate or None
        )
        self.dijkstra_runs += runs
        return row

    def _classify(self, source: int, target: int, rows) -> apsp.PairRoute:
        """Classify a canonical pair from its source's two rows."""
        graph = self._graph
        return apsp.classify_pair(
            graph,
            apsp.row_path(graph, rows[0], source, target),
            apsp.row_path(graph, rows[1], source, target),
        )

    def invalidate(self) -> set[tuple[str, str]]:
        """Refresh routes after link changes, recomputing immediately.

        One path for every change: the router diffs its snapshot against
        the live network per edge and weight
        (:func:`~repro.network.apsp.diff_graphs`), re-runs only the rows
        a changed edge fails :func:`~repro.network.apsp.row_survives`
        for, and reclassifies only the pairs whose path changed or
        crosses a changed link. Per-size entries all drop after an
        improvement, otherwise only those crossing a changed link.
        DESIGN.md §15 has the rules and their proofs.

        Returns the canonical ``(server, server)`` pairs whose cached
        route changed or whose per-size entries dropped -- every
        size-dependent pair once per-size entries were evicted -- so
        consumers re-derive their per-size prices. Reclassified pairs are
        rewritten in the :meth:`route_table`, and the :attr:`dense`
        matrices, when built, are refreshed over those pairs before this
        returns. Hit/miss counters are kept; the work lands in
        :attr:`last_invalidation`.
        """
        runs_before = self.dijkstra_runs
        graph = self._snapshot()
        old = graph if self._graph is None else self._graph
        self._graph = graph
        self._certificate = None
        change = apsp.diff_graphs(old, graph)
        names = graph.names
        affected: set[tuple[str, str]] = set()
        reclassified = rerun = 0
        for si in sorted(self._rows):
            targets, runs = self._refresh_rows(si, change)
            rerun += runs
            reclassified += len(targets)
            for ti in targets:
                pair = (names[si], names[ti])
                route = self._classify(si, ti, self._rows[si])
                if route != self._route_cache[pair]:
                    affected.add(pair)
                self._store(si, ti, route)
        sized_dropped = self._drop_sized(change)
        affected |= sized_dropped
        if self._sized_evicted and (change.moved or change.improved):
            self._sized_evicted = False  # consumers may price evicted sizes
            index = graph.index
            affected.update(
                (a, b)
                for (a, b), route in self._route_cache.items()
                if not route.size_independent and index[a] < index[b]
            )
        self.pairs_invalidated += len(affected)
        self.pairs_recomputed += reclassified
        self.last_invalidation = {
            "changed_links": len(change.moved) // 2,
            "rows_rerun": rerun,
            "pairs_invalidated": len(affected),
            "pairs_recomputed": reclassified,
            "sized_pairs_dropped": len(sized_dropped),
            "dijkstra_runs": self.dijkstra_runs - runs_before,
        }
        if affected and self.dense is not None:
            index = self.server_index
            scope = set()
            for a, b in affected:
                scope.add((index[a], index[b]))
                scope.add((index[b], index[a]))
            self.dense.refresh(scope)
        return affected

    def _refresh_rows(
        self, si: int, change: apsp.GraphChange
    ) -> tuple[list[int], int]:
        """Re-run the stale rows of one source; ``(targets, re-runs)``.

        The targets are the source's pairs whose path changed or
        crosses a moved link.
        """
        before = self._rows[si]
        rows = list(before)
        dirty: set[int] = set()
        runs = 0
        for weight, relaxed in enumerate(change.relaxed):
            if relaxed and not apsp.row_survives(before[weight], relaxed):
                rows[weight] = self._source_row(si, weight)
                runs += 1
            dirty |= apsp.moved_targets(before[weight], rows[weight], change.moved)
        self._rows[si] = (rows[0], rows[1])
        return sorted(ti for ti in dirty if ti > si), runs

    def _drop_sized(self, change: apsp.GraphChange) -> set[tuple[str, str]]:
        """Drop stale per-size entries; returns their canonical pairs."""
        index = self._graph.index
        stale = [
            key
            for key, path in self._sized_path_cache.items()
            if change.improved
            or apsp.crosses(tuple(index[name] for name in path), change.moved)
        ]
        dropped: set[tuple[str, str]] = set()
        for key in stale:
            del self._sized_path_cache[key]
            a, b = key[:2]
            dropped.add((a, b) if index[a] < index[b] else (b, a))
        return dropped

    def reset_counters(self) -> None:
        """Zero every telemetry counter (caches are left alone)."""
        self.hits = 0
        self.misses = 0
        self.dijkstra_runs = 0
        self.pairs_invalidated = 0
        self.pairs_recomputed = 0
        self.last_invalidation = None
