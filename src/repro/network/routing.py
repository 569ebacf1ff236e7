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
it classifies a server pair and keeps the two coefficients per pair --
after which any message size is answered in O(1) without touching
Dijkstra and without growing any store. Only genuinely size-dependent
pairs (a short slow path versus a long fast one, where neither
dominates) fall back to a per-size store.

Pair classification runs on the compiled kernel in
:mod:`repro.network.apsp` -- integer-indexed adjacency with precomputed
weights, networkx-faithful tie-breaking -- from per-source *rows*. Each
pair is built in canonical direction: the endpoint that comes first in
the network's server order is the source, and the first query for any
of its pairs runs that source's two single-source passes and classifies
every pair of the source from them. Lazy queries and
:meth:`Router.compile_all_pairs` therefore take the same path: a full
table costs at most ``2 * (S - 1)`` passes (fewer when the dense fast
path certifies rows of a complete graph), and the classified
coefficients are bit-identical no matter which query arrived first.

The router is the *single owner of path selection*: every route-delay
consumer -- the compiled instances (and through them ``CostModel``/
``MoveEvaluator``/``BatchEvaluator``), the simulator, the fleet --
reads paths and affine coefficients from here, over arbitrary weighted
graphs with heterogeneous per-link speeds and propagation delays.
Nothing downstream assumes a uniform bus or a line; those are just the
easy special cases. All its state is keyed by server index: the rows,
the index-keyed route table (:meth:`Router.route_table`) of classified
slots, which every :class:`~repro.core.compiled.CompiledInstance` on
the router borrows, and the per-size paths of size-dependent pairs. A
route's path is not stored; :meth:`Router.path` rebuilds it from the
rows. The name-keyed queries translate names to indices and read the
same slots.

Cache effectiveness is observable through :attr:`Router.hits` /
:attr:`Router.misses`; recompute effort through
:attr:`Router.dijkstra_runs`, :attr:`Router.pairs_invalidated`,
:attr:`Router.pairs_recomputed` and :attr:`Router.last_invalidation`.
Link parameters may change at runtime (the fleet's link
failure/degradation events); :meth:`Router.invalidate` is the one
refresh hook: it re-runs only the single-source passes a changed edge
could alter, for any kind of change (DESIGN.md §15), rewriting the
route table's slots in place. A server change needs a new router.
:meth:`Router.retain` bounds the per-size store to the message sizes
its owner still prices, each time the owner calls it; until then the
store grows with every new size queried.

The generation contract: between two bumps of
:attr:`ServerNetwork.generation
<repro.network.topology.ServerNetwork.generation>` the network is
frozen, so every router on one generation borrows that generation's
one snapshot and its dense certificate
(:func:`repro.network.apsp.compile_graph`). Rows, route table and the
per-size store stay per router: nothing a query fills is shared. A
mutation bumps the generation, and a router keeps routing over its
snapshot until :meth:`Router.invalidate` takes the new one.
"""

from __future__ import annotations

from typing import Collection

from repro.exceptions import NetworkError
from repro.network import apsp
from repro.network.topology import ServerNetwork

__all__ = ["Router"]


class Router:
    """Shortest-delivery-time routing with per-pair memoisation.

    Parameters
    ----------
    network:
        The server network to route over. The router takes the
        snapshot of the network's current generation lazily on first
        query (a :class:`repro.network.apsp.CompiledGraph`, shared with
        every router on that generation) and routes over it until
        :meth:`invalidate`. Its server set is fixed: a changed one
        needs a new router.

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
        bulk forms): a *hit* is answered from a filled slot (or the
        per-size store), a *miss* fills the pair's source (or runs a
        per-size pass).
    dijkstra_runs:
        Cumulative single-source Dijkstra passes executed (source
        fills, per-size fallbacks and invalidation re-runs alike) --
        the unit of routing work the benchmarks compare.
    pairs_invalidated:
        Cumulative count over :meth:`invalidate` calls of the canonical
        pairs reported as changed (the returned sets: a changed slot or
        dropped per-size entries) -- what the dense matrices and
        consumers re-derive.
    pairs_recomputed:
        Cumulative count over :meth:`invalidate` calls of the filled
        pairs reclassified from their source's rows (a pair whose path
        changed or crosses a changed link), whether or not the slot
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
        self.server_names: tuple[str, ...] = network.server_names
        self.server_index: dict[str, int] = {
            name: i for i, name in enumerate(self.server_names)
        }
        count = len(self.server_names)
        # routes[i][j]: the classified slot, written by _store;
        # co-located pairs are free at any size
        self._routes: list[list[tuple[float, float] | tuple[()] | None]] = [
            [None] * count for _ in range(count)
        ]
        for i in range(count):
            self._routes[i][i] = (0.0, 0.0)
        # the connectivity check runs once, when the table is first bound
        self._connected = False
        self.dense = None
        # canonical source index -> its (min-propagation, min-transfer)
        # rows; a source has rows exactly when its slots are filled
        self._rows: dict[int, tuple[apsp.Row, apsp.Row]] = {}
        # (i, j, size_bits) -> index path of a size-dependent pair,
        # stored in both directions
        self._sized: dict[tuple[int, int, float], tuple[int, ...]] = {}
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

    # ------------------------------------------------------------------
    # compiled-graph plumbing
    # ------------------------------------------------------------------
    def _compiled_graph(self) -> apsp.CompiledGraph:
        graph = self._graph
        if graph is None:
            graph = self._graph = self._snapshot()
        return graph

    def _snapshot(self) -> apsp.CompiledGraph:
        """The network's current snapshot, over this router's servers."""
        graph = apsp.compile_graph(self._network)
        if graph.names != self.server_names:
            raise NetworkError(
                f"{self._network.name!r} changed servers: use a new Router"
            )
        return graph

    def _indices(self, source: str, target: str) -> tuple[int, int]:
        """The route-table indices of two server names."""
        index = self.server_index
        try:
            return index[source], index[target]
        except KeyError:
            self._network.server(source)
            self._network.server(target)
            raise NetworkError(
                f"{self._network.name!r} changed servers: use a new Router"
            ) from None

    def _store(
        self, si: int, ti: int, coeff: tuple[float, float] | tuple[()]
    ) -> None:
        """The one write of a classified canonical pair ``(si, ti)``.

        Fills both route-table slots -- a symmetric network routes the
        reverse direction with the *same* coefficient floats -- with the
        affine coefficients, or ``()`` for a size-dependent pair
        (answered per size).
        """
        self._routes[si][ti] = self._routes[ti][si] = coeff

    def _slot(self, si: int, ti: int) -> tuple[float, float] | tuple[()]:
        """The pair's slot, filled on a miss; counts the query.

        A size-dependent pair's hit is left to its per-size query.
        """
        coeff = self._routes[si][ti]
        if coeff is None:
            self.misses += 1
            self._build_route(si, ti)
            coeff = self._routes[si][ti]
        elif coeff:
            self.hits += 1
        return coeff

    def _build_route(self, si: int, ti: int) -> None:
        """Classify the pair ``(si, ti)`` on its first query.

        The pair's canonical source (the endpoint that comes first in
        network server order) is filled (:meth:`_fill_source`), which
        classifies this pair and every other pair of that source, so a
        later query from the same source is a hit.
        """
        self._compiled_graph()
        try:
            self._fill_source(min(si, ti))
        except apsp.DisconnectedNetworkError as error:
            names = self.server_names
            raise apsp.DisconnectedNetworkError(
                f"cannot route {names[si]!r} to {names[ti]!r}: {error}"
            ) from None

    def _route_path(
        self, si: int, ti: int, coeff: tuple[float, float]
    ) -> tuple[int, ...]:
        """A size-independent pair's route, rebuilt from its rows.

        The min-transfer path when classification took it (its
        coefficients are the slot's, the min-propagation path's are
        not), else the min-propagation path; walked backwards for the
        non-canonical direction.
        """
        source, target = min(si, ti), max(si, ti)
        graph = self._graph
        zero, large = self._rows[source]
        path = apsp.row_path(graph, zero, source, target)
        if graph.coefficients(path) != coeff:
            path = apsp.row_path(graph, large, source, target)
        return path if source == si else path[::-1]

    def _sized_path(self, si: int, ti: int, size_bits: float) -> tuple[int, ...]:
        """Per-size fallback for size-dependent pairs."""
        path = self._sized.get((si, ti, size_bits))
        if path is not None:
            self.hits += 1
            return path
        self.misses += 1
        path = apsp.shortest_sized_path(self._graph, si, ti, size_bits)
        self.dijkstra_runs += 1
        self._store_sized(si, ti, size_bits, path)
        return path

    def _store_sized(
        self, si: int, ti: int, size_bits: float, path: tuple[int, ...]
    ) -> None:
        """Store one sized path in both directions."""
        self._sized[(si, ti, size_bits)] = path
        self._sized[(ti, si, size_bits)] = path[::-1]

    def _sized_time(self, path: tuple[int, ...], size_bits: float) -> float:
        propagation, transfer = self._graph.coefficients(path)
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
        si, ti = self._indices(source, target)
        coeff = self._slot(si, ti)
        if coeff:
            path = self._route_path(si, ti, coeff)
        else:
            path = self._sized_path(si, ti, size_bits)
        return self._graph.to_names(path)

    def transmission_time(
        self, source: str, target: str, size_bits: float
    ) -> float:
        """``Ttrans`` along the best path: sum of per-link size/speed + Trefl.

        Zero when source and target coincide (co-located operations talk
        through local memory, the paper's key lever for saving cost).
        Size-independent pairs are answered from the slot's affine
        coefficients in O(1) regardless of how many distinct message
        sizes are queried.
        """
        if source == target:
            return 0.0
        si, ti = self._indices(source, target)
        coeff = self._slot(si, ti)
        if coeff:
            return coeff[0] + size_bits * coeff[1]
        return self._sized_time(self._sized_path(si, ti, size_bits), size_bits)

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
        sized = self._sized
        queued: dict[int, list[tuple[int, int]]] = {}
        queued_keys: set[tuple[int, int]] = set()
        for slot, (source, target) in enumerate(pairs):
            if source == target:
                continue
            si, ti = self._indices(source, target)
            coeff = self._slot(si, ti)
            if coeff:
                times[slot] = coeff[0] + size_bits * coeff[1]
                continue
            path = sized.get((si, ti, size_bits))
            if path is not None:
                self.hits += 1
                times[slot] = self._sized_time(path, size_bits)
            else:
                # counters are settled here, in query order: if this
                # pair (either direction) is already queued, a
                # sequential call at this position would be answered
                # from the earlier miss's store -- a hit
                if (si, ti) in queued_keys:
                    self.hits += 1
                else:
                    self.misses += 1
                    queued_keys.add((si, ti))
                    queued_keys.add((ti, si))
                queued.setdefault(si, []).append((slot, ti))
        for si, wanted in queued.items():  # insertion (= query) order
            pending: list[tuple[int, int]] = []
            for slot, ti in wanted:
                # an earlier group's reverse-direction store may already
                # have answered this pair, exactly as a sequential query
                # after it would have hit the store (already counted as
                # a hit at queue time above)
                path = sized.get((si, ti, size_bits))
                if path is not None:
                    times[slot] = self._sized_time(path, size_bits)
                else:
                    pending.append((slot, ti))
            if not pending:
                continue
            paths = apsp.sized_source_paths(
                self._graph, si, [ti for _slot, ti in pending], size_bits
            )
            self.dijkstra_runs += 1
            for slot, ti in pending:
                path = paths[ti]
                self._store_sized(si, ti, size_bits, path)
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
        a cold pair is a miss, a filled size-independent pair a hit (a
        size-dependent pair is counted by the per-size fallback query).
        """
        if source == target:
            return (0.0, 0.0)
        return self._slot(*self._indices(source, target)) or None

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

    # ------------------------------------------------------------------
    # batched compilation, invalidation and retention
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
        :meth:`invalidate` and :meth:`path`; nothing is stored when a
        target is unreachable. Returns the pairs classified (0 for a
        source that is already filled).
        """
        if si in self._rows:
            return 0
        weights = (apsp.WEIGHT_PROPAGATION, apsp.WEIGHT_TRANSFER)
        rows = tuple(self._source_row(si, weight) for weight in weights)
        first = si + 1
        certificate = self._graph.certificate()
        if certificate and all(certificate.row_ok(si, w) for w in weights):
            # both rows are the direct links, so classification would
            # take branch 1 with each link's own floats (0.0 + p == p)
            direct = {
                ti: (0.0 + prop, 0.0 + inv)
                for ti, prop, inv, _speed in self._graph.adjacency[si]
            }
            slots = [direct[ti] for ti in range(first, len(self.server_names))]
        else:
            slots = [
                self._classify(si, ti, rows)
                for ti in range(first, len(self.server_names))
            ]
        self._rows[si] = rows
        for ti, coeff in enumerate(slots, start=first):
            self._store(si, ti, coeff)
        return len(slots)

    def _source_row(self, source: int, weight: int) -> apsp.Row:
        """One full pass of the snapshot (or its dense certificate)."""
        graph = self._graph
        row, runs = apsp.source_row(graph, source, weight, graph.certificate())
        self.dijkstra_runs += runs
        return row

    def _classify(
        self, source: int, target: int, rows
    ) -> tuple[float, float] | tuple[()]:
        """Classify a canonical pair from its source's two rows."""
        graph = self._graph
        return apsp.classify_pair(
            graph,
            apsp.row_path(graph, rows[0], source, target),
            apsp.row_path(graph, rows[1], source, target),
        )

    def invalidate(self) -> set[tuple[int, int]]:
        """Refresh routes after link changes, recomputing immediately.

        One path for every change: the router diffs its snapshot against
        the live network per edge and weight
        (:func:`~repro.network.apsp.diff_graphs`), re-runs only the rows
        a changed edge fails :func:`~repro.network.apsp.row_survives`
        for, and reclassifies only the pairs whose path changed or
        crosses a changed link. Per-size entries all drop after an
        improvement, otherwise only those crossing a changed link.
        DESIGN.md §15 has the rules and their proofs.

        Returns the canonical index pairs ``(i, j)``, ``i < j``, whose
        slot changed or whose per-size entries dropped, so consumers
        re-derive their prices. Reclassified pairs are rewritten in the
        :meth:`route_table`, and the :attr:`dense` matrices, when built,
        are refreshed over those pairs before this returns. Hit/miss
        counters are kept; the work lands in :attr:`last_invalidation`.
        """
        runs_before = self.dijkstra_runs
        graph = self._snapshot()
        old = graph if self._graph is None else self._graph
        self._graph = graph
        change = apsp.diff_graphs(old, graph)
        routes = self._routes
        affected: set[tuple[int, int]] = set()
        reclassified = rerun = 0
        for si in sorted(self._rows):
            targets, runs = self._refresh_rows(si, change)
            rerun += runs
            reclassified += len(targets)
            rows = self._rows[si]
            for ti in targets:
                coeff = self._classify(si, ti, rows)
                if coeff != routes[si][ti]:
                    affected.add((si, ti))
                self._store(si, ti, coeff)
        sized_dropped = self._drop_sized(change)
        affected |= sized_dropped
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
            self.dense.refresh(affected)
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

    def _drop_sized(self, change: apsp.GraphChange) -> set[tuple[int, int]]:
        """Drop stale per-size entries; returns their canonical pairs."""
        stale = [
            key
            for key, path in self._sized.items()
            if change.improved or apsp.crosses(path, change.moved)
        ]
        dropped: set[tuple[int, int]] = set()
        for key in stale:
            del self._sized[key]
            a, b = key[:2]
            dropped.add((a, b) if a < b else (b, a))
        return dropped

    def retain(self, sizes: Collection[float]) -> None:
        """Keep only the per-size state of the message sizes in *sizes*.

        Drops every per-size path and every :attr:`dense` delay matrix
        of a size outside *sizes*. For the owner of the consumers on
        this router -- the fleet state -- to call with the sizes its
        live tenants price, so refreshes and memory follow the live
        tenants instead of every size priced since the router was
        built. A dropped size is no longer refreshed: a consumer still
        holding a price at that size would keep a stale one.
        """
        self._sized = {
            key: path for key, path in self._sized.items() if key[2] in sizes
        }
        if self.dense is not None:
            matrices = self.dense.matrices
            for size_bits in [size for size in matrices if size not in sizes]:
                del matrices[size_bits]
