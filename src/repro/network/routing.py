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
*every* message size. The router detects that (very common) case on the
first query for a server pair and caches the two coefficients per
``(source, target)`` -- after which any message size is answered in O(1)
without touching Dijkstra and without growing the cache. Only genuinely
size-dependent pairs (a short slow path versus a long fast one, where
neither dominates) fall back to a bounded per-size cache.

Pair classification runs on the compiled kernel in
:mod:`repro.network.apsp` -- integer-indexed adjacency with precomputed
weights, networkx-faithful tie-breaking -- instead of per-query networkx
lambdas, and each pair is *built in canonical direction* (the endpoint
that comes first in the network's server order is the Dijkstra source)
so that lazily-filled, batch-compiled and incrementally-refreshed caches
hold bit-identical coefficients no matter which query arrived first.
:meth:`Router.compile_all_pairs` fills the whole table in ``2 * (S - 1)``
single-source passes (fewer when the dense fast path certifies rows of a
complete graph) instead of ``S * (S - 1)`` targeted pair builds.

The router is the *single owner of path selection*: every route-delay
consumer -- :class:`~repro.core.compiled.CompiledInstance`'s lazy
route table (and through it ``CostModel``/``MoveEvaluator``/
``BatchEvaluator``), the simulator, the fleet -- reads
paths and affine coefficients from here, over arbitrary weighted graphs
with heterogeneous per-link speeds and propagation delays. Nothing
downstream assumes a uniform bus or a line; those are just the easy
special cases.

Cache effectiveness is observable through :attr:`Router.hits` /
:attr:`Router.misses` / :attr:`Router.hit_rate`; recompute effort
through :attr:`Router.dijkstra_runs`, :attr:`Router.pairs_invalidated`,
:attr:`Router.pairs_recomputed` and :attr:`Router.last_invalidation`.
Link parameters may change at runtime (the fleet's link
failure/degradation events); :meth:`Router.invalidate` is the one
refresh hook and recomputes immediately. Given ``changed_links`` and
``worsening=True`` it drops *only* the pairs whose classification paths
traverse a changed link (a strict worsening cannot make an untouched
path sub-optimal) and recomputes just those; improvements or additions
can re-route *any* pair, so they always fall back to a full recompile.
That asymmetry is the core of link-scoped invalidation -- see
DESIGN.md §15. A server change needs a new router.

Between mutations the network is treated as frozen.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.network import apsp
from repro.network.topology import ServerNetwork

__all__ = ["Router"]

#: Per-size fallback entries kept for size-*dependent* server pairs
#: before the oldest half is evicted (bounds memory on adversarial
#: workloads; size-independent pairs never consume these entries).
SIZED_CACHE_LIMIT = 4096


@dataclass(frozen=True)
class _Route:
    """One cached route: its path and affine time coefficients."""

    path: tuple[str, ...]
    propagation_s: float
    transfer_s_per_bit: float
    size_independent: bool

    def time(self, size_bits: float) -> float:
        return self.propagation_s + size_bits * self.transfer_s_per_bit


class Router:
    """Shortest-delivery-time routing with per-pair memoisation.

    Parameters
    ----------
    network:
        The server network to route over. The router snapshots the
        topology lazily on first query (into a
        :class:`repro.network.apsp.CompiledGraph`) and assumes links do
        not change until :meth:`invalidate`.

    Attributes
    ----------
    hits, misses:
        Cache counters over non-co-located :meth:`transmission_time`,
        :meth:`pair_coefficients` and :meth:`path` queries (and their
        bulk forms): a *hit* is answered from the per-pair (or
        per-size fallback) cache, a *miss* runs Dijkstra.
    dijkstra_runs:
        Cumulative single-source Dijkstra passes executed (lazy builds,
        batched compiles and scoped recomputes alike) -- the unit of
        routing work the benchmarks compare.
    pairs_invalidated, pairs_recomputed:
        Cumulative counts over :meth:`invalidate` calls: how many cached
        pairs were dropped, and how many were recomputed.
    last_invalidation:
        A summary dict of the most recent :meth:`invalidate` call
        (``mode``/``changed_links``/``pairs_invalidated``/
        ``pairs_recomputed``/``dijkstra_runs``, plus
        ``sized_pairs_dropped`` in scoped mode), or ``None``.
    """

    def __init__(self, network: ServerNetwork):
        self._network = network
        self._graph: apsp.CompiledGraph | None = None
        self._route_cache: dict[tuple[str, str], _Route] = {}
        self._sized_path_cache: dict[tuple[str, str, float], tuple[str, ...]] = {}
        # link-scoped invalidation reverse index: which cached pairs have
        # a classification path traversing a given link, and the inverse
        self._link_pairs: dict[frozenset[str], set[tuple[str, str]]] = {}
        self._pair_links: dict[tuple[str, str], frozenset[frozenset[str]]] = {}
        # raw (zero_path, large_path) per canonical pair, kept so a
        # change touching only one weight can reuse the other's pass
        self._pair_paths: dict[
            tuple[str, str], tuple[tuple[str, ...], tuple[str, ...]]
        ] = {}
        self._compiled_all = False
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
            graph = self._graph = apsp.compile_graph(self._network)
        return graph

    def _coefficients(self, nodes: tuple[str, ...]) -> tuple[float, float]:
        """``(sum propagation, sum 1/speed)`` along *nodes*."""
        propagation = 0.0
        transfer = 0.0
        for a, b in zip(nodes, nodes[1:]):
            link = self._network.link(a, b)
            propagation += link.propagation_s
            transfer += 1.0 / link.speed_bps
        return propagation, transfer

    def _store(
        self, a: str, b: str, record: apsp.PairRoute
    ) -> None:
        """Cache one classified canonical pair (both directions)."""
        route = _Route(
            record.path,
            record.propagation_s,
            record.transfer_s_per_bit,
            record.size_independent,
        )
        self._route_cache[(a, b)] = route
        # symmetric network: the reverse path is optimal in reverse,
        # with the *same* coefficient floats
        self._route_cache[(b, a)] = _Route(
            route.path[::-1],
            route.propagation_s,
            route.transfer_s_per_bit,
            route.size_independent,
        )
        paths = (record.path,)
        if record.alt_path is not None:
            paths += (record.alt_path,)
        links = frozenset(
            frozenset(edge) for path in paths for edge in zip(path, path[1:])
        )
        self._pair_links[(a, b)] = links
        for link in links:
            self._link_pairs.setdefault(link, set()).add((a, b))
        self._pair_paths[(a, b)] = (record.zero_path, record.large_path)

    def _build_route(self, source: str, target: str) -> _Route:
        """Classify the (source, target) pair on its first query.

        Runs Dijkstra twice -- once by propagation delay (the size-0
        optimum) and once by transfer coefficient (the size-infinity
        optimum). When one of the two paths minimises *both* affine
        coefficients it is optimal for every message size and the pair is
        cached as size-independent; otherwise neither path dominates and
        per-size queries must fall back to Dijkstra.

        The pair is always *built* from its canonical direction (network
        server order), whichever way the query ran, so every code path
        that can populate the cache produces identical floats.
        """
        graph = self._compiled_graph()
        index = graph.index
        a, b = source, target
        if index[a] > index[b]:
            a, b = b, a
        try:
            path_zero = apsp.shortest_path(
                graph, index[a], index[b], apsp.WEIGHT_PROPAGATION
            )
            path_large = apsp.shortest_path(
                graph, index[a], index[b], apsp.WEIGHT_TRANSFER
            )
        except apsp.DisconnectedNetworkError:
            raise apsp.DisconnectedNetworkError(
                f"no route from {source!r} to {target!r} in "
                f"{self._network.name!r}"
            ) from None
        self.dijkstra_runs += 2
        self._store(a, b, apsp.classify_pair(graph, path_zero, path_large))
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
        source, target, size_bits = key
        self._sized_path_cache[key] = path
        self._sized_path_cache[(target, source, size_bits)] = path[::-1]

    def _sized_time(self, path: tuple[str, ...], size_bits: float) -> float:
        propagation, transfer = self._coefficients(path)
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
        route = self._route_cache.get((source, target))
        if route is None:
            self.misses += 1
            route = self._build_route(source, target)
        elif route.size_independent:
            self.hits += 1
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
        route = self._route_cache.get((source, target))
        if route is None:
            self._network.server(source)
            self._network.server(target)
            self.misses += 1
            route = self._build_route(source, target)
        elif route.size_independent:
            self.hits += 1
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
            route = self._route_cache.get((source, target))
            if route is None:
                self._network.server(source)
                self._network.server(target)
                self.misses += 1
                route = self._build_route(source, target)
            elif route.size_independent:
                self.hits += 1
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
        route = self._route_cache.get((source, target))
        if route is None:
            self._network.server(source)
            self._network.server(target)
            self.misses += 1
            route = self._build_route(source, target)
        elif route.size_independent:
            self.hits += 1
        if route.size_independent:
            return (route.propagation_s, route.transfer_s_per_bit)
        return None

    def cached_route(self, source: str, target: str) -> _Route | None:
        """The cached entry for a pair, without counting a query.

        The bulk-refill accessor: after :meth:`compile_all_pairs` or
        :meth:`invalidate` the compiled-instance route table reads every
        pair through here so route refreshes do not distort the
        hit/miss telemetry of real pricing traffic.
        """
        return self._route_cache.get((source, target))

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

        One batched sweep: at most two single-source Dijkstra passes per
        source server (the dense direct-dominance certificate skips
        whole passes on complete graphs), instead of two *targeted* runs
        per pair. Already-cached pairs are kept -- their entries are
        bit-identical to what recompilation would produce, because every
        build path is canonical.
        """
        graph = self._compiled_graph()
        names = graph.names
        dense = apsp.dense_dominance(graph)
        compiled = 0
        for si in range(len(names) - 1):
            targets = [
                ti
                for ti in range(si + 1, len(names))
                if (names[si], names[ti]) not in self._route_cache
            ]
            if not targets:
                continue
            routes, runs = apsp.compile_source_routes(graph, si, targets, dense)
            self.dijkstra_runs += runs
            for ti, record in routes.items():
                self._store(names[si], names[ti], record)
                compiled += 1
        self._compiled_all = True
        return compiled

    def invalidate(
        self,
        changed_links: tuple[tuple[str, str], ...] | None = None,
        worsening: bool = False,
        speed_changed: bool = True,
        propagation_changed: bool = True,
    ) -> set[tuple[str, str]] | None:
        """Refresh routes after a link change, recomputing immediately.

        With *changed_links* (endpoint pairs) and ``worsening=True`` --
        a link failure, or a degrade that is slower and/or laggier --
        only the cached pairs whose classification paths traverse a
        changed link are dropped and recomputed: a path untouched by a
        strict worsening keeps exactly its coefficients and stays
        optimal, because every alternative only got worse. The returned
        set of canonical pairs is everything whose *route-derived state*
        may have changed: the recomputed pairs, plus any size-dependent
        pair whose cached per-size fallback path crossed a changed link
        -- a pair's per-size optimum can be a third Pareto path through
        the change while both classification paths avoid it, so its
        classification stands but consumers caching per-size prices
        (dense delay matrices, migration rows) must re-derive them.

        Anything else -- no link set, an improvement, a new link -- can
        re-route pairs whose cached paths *avoid* the change, so the
        whole table is dropped and recompiled via
        :meth:`compile_all_pairs`; ``None`` is returned meaning "all
        pairs". Hit/miss counters are preserved either way (this is
        maintenance, not traffic); the work done is recorded in
        :attr:`last_invalidation` and the cumulative counters.

        *speed_changed* / *propagation_changed* scope the recompute
        further: when a worsening touched only link speeds (a
        speed-only degrade), the propagation-weight graph is unchanged,
        so the affected pairs' stored min-propagation paths are exactly
        what a fresh pass would return and only the min-transfer passes
        re-run (and symmetrically). Leave both ``True`` -- the
        conservative default -- for failures or mixed degrades.
        """
        links: frozenset[frozenset[str]] | None = None
        if changed_links is not None:
            links = frozenset(frozenset(pair) for pair in changed_links)
        if links and worsening:
            reuse_weight: int | None = None
            if not propagation_changed and speed_changed:
                reuse_weight = apsp.WEIGHT_PROPAGATION
            elif not speed_changed and propagation_changed:
                reuse_weight = apsp.WEIGHT_TRANSFER
            return self._invalidate_scoped(links, reuse_weight)
        return self._invalidate_full(len(links) if links else 0)

    def _invalidate_full(self, changed: int) -> None:
        invalidated = len(self._route_cache) // 2
        runs_before = self.dijkstra_runs
        self._route_cache.clear()
        self._sized_path_cache.clear()
        self._link_pairs.clear()
        self._pair_links.clear()
        self._pair_paths.clear()
        self._graph = None
        self._compiled_all = False
        recomputed = self.compile_all_pairs()
        self.pairs_invalidated += invalidated
        self.pairs_recomputed += recomputed
        self.last_invalidation = {
            "mode": "full",
            "changed_links": changed,
            "pairs_invalidated": invalidated,
            "pairs_recomputed": recomputed,
            "dijkstra_runs": self.dijkstra_runs - runs_before,
        }
        return None

    def _invalidate_scoped(
        self,
        links: frozenset[frozenset[str]],
        reuse_weight: int | None = None,
    ) -> set[tuple[str, str]]:
        runs_before = self.dijkstra_runs
        affected: set[tuple[str, str]] = set()
        for link in links:
            affected |= self._link_pairs.get(link, set())
        reusable: dict[tuple[str, str], tuple[str, ...]] = {}
        for pair in affected:
            if reuse_weight is not None:
                reusable[pair] = self._pair_paths[pair][reuse_weight]
            self._pair_paths.pop(pair, None)
            for link in self._pair_links.pop(pair, ()):  # clean the index
                owners = self._link_pairs.get(link)
                if owners is not None:
                    owners.discard(pair)
                    if not owners:
                        del self._link_pairs[link]
            a, b = pair
            del self._route_cache[(a, b)]
            del self._route_cache[(b, a)]
        # sized fallbacks: only entries whose stored path crosses a
        # changed link can be stale under a strict worsening. Their
        # pairs are not necessarily in `affected` -- a size-dependent
        # pair's optimum at one size can be a third Pareto path through
        # a changed link while both classification paths avoid it -- so
        # the dropped pairs are reported alongside the recomputed ones,
        # or consumers would restore the dropped sizes' old (now
        # too optimistic) prices verbatim.
        sized_dropped: set[tuple[str, str]] = set()
        stale = [
            key
            for key, path in self._sized_path_cache.items()
            if any(frozenset(edge) in links for edge in zip(path, path[1:]))
        ]
        for key in stale:
            del self._sized_path_cache[key]
            sized_dropped.add(key[:2])
        # link weights changed: re-snapshot, then recompute the affected
        # pairs in batched per-source sweeps (canonical direction); when
        # only one weight changed the other's stored paths stand in for
        # its pass -- a deterministic rerun over an unchanged weight
        # graph could only reproduce them
        self._graph = None
        graph = self._compiled_graph()
        index = graph.index
        sized_only = {
            pair if index[pair[0]] < index[pair[1]] else pair[::-1]
            for pair in sized_dropped
        } - affected
        by_source: dict[int, list[int]] = {}
        for a, b in affected:
            by_source.setdefault(graph.index[a], []).append(graph.index[b])
        dense = apsp.dense_dominance(graph)
        for si in sorted(by_source):
            targets = sorted(by_source[si])
            reuse = None
            if reuse_weight is not None:
                source_name = graph.names[si]
                reuse = (
                    reuse_weight,
                    {
                        ti: tuple(
                            graph.index[name]
                            for name in reusable[
                                (source_name, graph.names[ti])
                            ]
                        )
                        for ti in targets
                    },
                )
            routes, runs = apsp.compile_source_routes(
                graph, si, targets, dense, reuse
            )
            self.dijkstra_runs += runs
            for ti, record in routes.items():
                self._store(graph.names[si], graph.names[ti], record)
        self.pairs_invalidated += len(affected)
        self.pairs_recomputed += len(affected)
        self.last_invalidation = {
            "mode": "scoped",
            "changed_links": len(links),
            "pairs_invalidated": len(affected),
            "pairs_recomputed": len(affected),
            "sized_pairs_dropped": len(sized_only),
            "dijkstra_runs": self.dijkstra_runs - runs_before,
        }
        return affected | sized_only

    def reset_counters(self) -> None:
        """Zero every telemetry counter (caches are left alone)."""
        self.hits = 0
        self.misses = 0
        self.dijkstra_runs = 0
        self.pairs_invalidated = 0
        self.pairs_recomputed = 0
        self.last_invalidation = None
