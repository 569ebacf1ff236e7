"""Batched all-pairs shortest-route compilation over a server network.

The :class:`~repro.network.routing.Router` classifies each server pair
by running Dijkstra twice -- once by propagation delay (the size-0
optimum) and once by transfer coefficient (the size-infinity optimum).
Resolved lazily that costs ``2 * S * (S - 1)`` *targeted* runs to fill
a full route table, each one driven through a networkx Python-lambda
weight callback. This module compiles the same answers in ``2 * S``
single-source passes over a prebuilt integer-indexed adjacency snapshot
with precomputed ``(propagation_s, 1/speed_bps)`` edge weights -- the
min-propagation pass, the min-transfer pass and the dominance
classification for every target of a source happen in one sweep.

**Exactness contract.** Every coefficient and representative path is
*byte-identical* to what the per-pair lazy path produces, because the
inner loop replicates networkx's ``_dijkstra_multisource`` semantics
exactly:

* the fringe holds ``(distance, tie_counter, node)`` triples, so ties
  on equal distances resolve by push order;
* neighbours relax in graph adjacency (edge-insertion) order;
* a node's path updates only on a *strict* distance improvement
  (``vu_dist < seen[u]``), never on equality;
* distances accumulate as the left fold ``dist[v] + w`` and path
  coefficients as the left-to-right sums of
  :meth:`Router._coefficients`, so every float is produced by the same
  IEEE-754 operation sequence.

A full single-source pass finalises, for each target, the exact path a
targeted run (which merely breaks early at the target's pop) would
return -- so batching changes *which* queries run, never their answers.

**Dense fast path.** Geo-region factories build *complete* graphs where
almost every shortest route is the direct link. There the per-source
*direct-dominance* check ``W[i, j] <= min_k(W[i, k] + W[k, j])`` --
evaluated in NumPy, in the same float64 arithmetic Dijkstra's
relaxations would use -- proves for a whole row at once that Dijkstra
would keep every direct single-link path: the source relaxes all
neighbours first, and no later relaxation ``dist[v] + W[v, u]`` can
*strictly* undercut the direct ``W[i, u]``.
Rows that pass (for a given weight) skip their Dijkstra run entirely
and fill direct routes whose coefficients are single-link reads -- no
sums, hence trivially byte-exact. Rows that fail fall back to the
ordinary pass.
"""

from __future__ import annotations

from dataclasses import dataclass
from heapq import heappop, heappush
from itertools import count

from repro.exceptions import DisconnectedNetworkError
from repro.network.topology import ServerNetwork

__all__ = [
    "CompiledGraph",
    "PairRoute",
    "compile_graph",
    "compile_source_routes",
    "shortest_path",
    "shortest_sized_path",
]

#: Weight selectors of the two classification passes.
WEIGHT_PROPAGATION = 0
WEIGHT_TRANSFER = 1


@dataclass(frozen=True)
class PairRoute:
    """One classified server pair, as the router caches it.

    ``path`` is the representative route (the size-0 optimum unless the
    min-transfer path dominates), ``alt_path`` the *other*
    classification path when it differs -- a size-dependent pair's
    optimum can flip to either, so link-scoped invalidation must watch
    the links of both. ``zero_path`` / ``large_path`` retain the two
    raw classification paths: when a later link change touches only one
    of the two weights, the unchanged weight's pass would reproduce its
    stored path exactly, so a scoped recompute can reuse it instead of
    re-running that pass (see ``compile_source_routes``'s *reuse*).
    """

    path: tuple[str, ...]
    propagation_s: float
    transfer_s_per_bit: float
    size_independent: bool
    alt_path: tuple[str, ...] | None
    zero_path: tuple[str, ...]
    large_path: tuple[str, ...]


class CompiledGraph:
    """An integer-indexed adjacency snapshot of one network's links.

    Rebuilt (cheaply, O(S + L)) whenever link parameters change; between
    rebuilds every Dijkstra pass runs over flat lists with precomputed
    weights instead of networkx dicts behind a lambda.

    Attributes
    ----------
    names, index:
        Server names in network (insertion) order and the inverse map.
    adjacency:
        ``adjacency[v] = [(u, propagation_s, inv_speed, speed_bps), ...]``
        in the *networkx adjacency order* of the underlying graph --
        the order the lazy per-pair path relaxed neighbours in, which
        the tie-counter semantics make observable.
    """

    __slots__ = ("network", "names", "index", "adjacency")

    def __init__(self, network: ServerNetwork):
        self.network = network
        self.names: tuple[str, ...] = network.server_names
        self.index: dict[str, int] = {
            name: i for i, name in enumerate(self.names)
        }
        graph = network.graph
        index = self.index
        adjacency: list[list[tuple[int, float, float, float]]] = []
        for name in self.names:
            row: list[tuple[int, float, float, float]] = []
            for neighbor in graph.adj[name]:
                link = network.link(name, neighbor)
                row.append(
                    (
                        index[neighbor],
                        link.propagation_s,
                        1.0 / link.speed_bps,
                        link.speed_bps,
                    )
                )
            adjacency.append(row)
        self.adjacency = adjacency

    def __len__(self) -> int:
        return len(self.names)

    def is_complete(self) -> bool:
        """True when every server pair is directly linked."""
        n = len(self.names)
        return all(len(row) == n - 1 for row in self.adjacency)

    def coefficients(
        self, path: tuple[int, ...]
    ) -> tuple[float, float]:
        """``(sum propagation, sum 1/speed)`` along *path* (index form).

        The same left-to-right fold as
        :meth:`repro.network.routing.Router._coefficients`, reading the
        precomputed per-edge weights -- identical floats.
        """
        propagation = 0.0
        transfer = 0.0
        adjacency = self.adjacency
        for a, b in zip(path, path[1:]):
            for u, prop, inv, _speed in adjacency[a]:
                if u == b:
                    propagation += prop
                    transfer += inv
                    break
        return propagation, transfer

    def to_names(self, path: tuple[int, ...]) -> tuple[str, ...]:
        """Translate an index path into server names."""
        names = self.names
        return tuple(names[i] for i in path)


def compile_graph(network: ServerNetwork) -> CompiledGraph:
    """Snapshot *network*'s links into a :class:`CompiledGraph`."""
    return CompiledGraph(network)


def _no_route(graph: CompiledGraph, source: int, target: int) -> Exception:
    return DisconnectedNetworkError(
        f"no route from {graph.names[source]!r} to "
        f"{graph.names[target]!r} in {graph.network.name!r}"
    )


def _dijkstra(
    graph: CompiledGraph,
    source: int,
    weight: int,
    target: int | None = None,
    size_bits: float | None = None,
) -> tuple[list[float | None], list[int]]:
    """One networkx-faithful Dijkstra pass; ``(dist, parent)`` arrays.

    *weight* selects the precomputed edge weight
    (:data:`WEIGHT_PROPAGATION` / :data:`WEIGHT_TRANSFER`); when
    *size_bits* is given the weight is instead the sized delivery time
    ``size_bits / speed_bps + propagation_s``, computed with exactly the
    float operations the lazy router's sized lambda used. A *target*
    stops the pass at the target's pop (the targeted-query fast path);
    without one the pass finalises every reachable node.

    The semantics mirror networkx ``_dijkstra_multisource`` operation
    for operation: the fringe is a heap of ``(dist, counter, node)``
    (ties resolve by push order), neighbours relax in adjacency order,
    and parent/path state updates only on strict improvement -- so
    reconstructed paths match ``nx.dijkstra_path`` byte for byte.
    """
    n = len(graph.names)
    dist: list[float | None] = [None] * n
    seen: list[float | None] = [None] * n
    parent = [-1] * n
    counter = count()
    fringe: list[tuple[float, int, int]] = [(0, next(counter), source)]
    seen[source] = 0
    adjacency = graph.adjacency
    sized = size_bits is not None
    while fringe:
        d, _, v = heappop(fringe)
        if dist[v] is not None:
            continue  # stale heap entry: already finalised
        dist[v] = d
        if v == target:
            break
        for edge in adjacency[v]:
            u = edge[0]
            if sized:
                cost = size_bits / edge[3] + edge[1]
            else:
                cost = edge[1 + weight]
            vu_dist = d + cost
            if dist[u] is not None:
                continue
            best = seen[u]
            if best is None or vu_dist < best:
                seen[u] = vu_dist
                heappush(fringe, (vu_dist, next(counter), u))
                parent[u] = v
    return dist, parent


def _reconstruct(parent: list[int], source: int, target: int) -> tuple[int, ...]:
    """The finalised path ``source -> target`` from parent pointers."""
    path = [target]
    node = target
    while node != source:
        node = parent[node]
        path.append(node)
    path.reverse()
    return tuple(path)


def shortest_path(
    graph: CompiledGraph, source: int, target: int, weight: int
) -> tuple[int, ...]:
    """The targeted single-pair query (early-stop Dijkstra)."""
    dist, parent = _dijkstra(graph, source, weight, target=target)
    if dist[target] is None:
        raise _no_route(graph, source, target)
    return _reconstruct(parent, source, target)


def shortest_sized_path(
    graph: CompiledGraph, source: int, target: int, size_bits: float
) -> tuple[int, ...]:
    """The per-size fallback query for genuinely size-dependent pairs."""
    dist, parent = _dijkstra(
        graph, source, WEIGHT_PROPAGATION, target=target, size_bits=size_bits
    )
    if dist[target] is None:
        raise _no_route(graph, source, target)
    return _reconstruct(parent, source, target)


def sized_source_paths(
    graph: CompiledGraph, source: int, targets, size_bits: float
) -> dict[int, tuple[int, ...]]:
    """Sized shortest paths from one source to many targets: ONE pass.

    The batched form of :func:`shortest_sized_path`: a single full
    sized Dijkstra pass answers every target. Each returned path is
    byte-identical to its targeted query -- the early break only stops
    the pass sooner, it never changes what was already finalised.
    """
    dist, parent = _dijkstra(
        graph, source, WEIGHT_PROPAGATION, size_bits=size_bits
    )
    paths: dict[int, tuple[int, ...]] = {}
    for target in targets:
        if dist[target] is None:
            raise _no_route(graph, source, target)
        paths[target] = _reconstruct(parent, source, target)
    return paths


def classify_pair(
    graph: CompiledGraph,
    path_zero: tuple[int, ...],
    path_large: tuple[int, ...],
) -> PairRoute:
    """The pinned dominance classification of one server pair.

    Byte-identical to ``Router._build_route``'s branch order, which is
    therefore the frozen tie-break contract:

    1. ``transfer_zero <= transfer_large``: the min-propagation path
       also minimises the transfer coefficient -- size-independent,
       coefficients from ``path_zero``.
    2. else ``prop_large <= prop_zero``: the min-transfer path is also
       propagation-optimal -- size-independent, coefficients from
       ``path_large``.
    3. else genuinely size-dependent: ``path_zero`` is the
       representative, per-size queries fall back to Dijkstra.
    """
    prop_zero, transfer_zero = graph.coefficients(path_zero)
    prop_large, transfer_large = graph.coefficients(path_large)
    zero_names = graph.to_names(path_zero)
    large_names = graph.to_names(path_large)
    if transfer_zero <= transfer_large:
        return PairRoute(
            zero_names, prop_zero, transfer_zero, True, None,
            zero_names, large_names,
        )
    if prop_large <= prop_zero:
        return PairRoute(
            large_names, prop_large, transfer_large, True, None,
            zero_names, large_names,
        )
    alt = large_names if large_names != zero_names else None
    return PairRoute(
        zero_names, prop_zero, transfer_zero, False, alt,
        zero_names, large_names,
    )


class _DenseDominance:
    """The NumPy direct-dominance fast path over a complete graph.

    For each classification weight a ``(S, S)`` matrix ``W`` of direct
    link weights is built; a *row* ``i`` passes when
    ``W[i, j] <= min_k(W[i, k] + W[k, j])`` for every ``j`` -- evaluated
    in float64, i.e. with exactly the two-term sums Dijkstra's
    relaxations would compare. A passing row certifies that the pass
    from source ``i`` finalises every target at its direct single-link
    path: the source relaxes all ``S - 1`` neighbours first (complete
    graph), so each target's tentative distance starts at ``W[i, j]``
    with parent ``i``, and the dominance inequality shows no later
    relaxation is a *strict* improvement -- the update rule never
    replaces on equality.
    """

    def __init__(self, graph: CompiledGraph, np):
        n = len(graph)
        prop = np.zeros((n, n))
        trans = np.zeros((n, n))
        for v, row in enumerate(graph.adjacency):
            for u, p, inv, _speed in row:
                prop[v, u] = p
                trans[v, u] = inv
        self.ok_rows = (
            self._dominant_rows(prop, np),
            self._dominant_rows(trans, np),
        )
        self.dense_rows = int(self.ok_rows[0].sum() + self.ok_rows[1].sum())

    @staticmethod
    def _dominant_rows(weights, np):
        # two_hop[i, j] = min_k (W[i, k] + W[k, j]); k = i and k = j are
        # harmless (W[i, i] = 0 makes them the direct weight itself)
        two_hop = (weights[:, :, None] + weights[None, :, :]).min(axis=1)
        return (weights <= two_hop).all(axis=1)

    def row_ok(self, source: int, weight: int) -> bool:
        return bool(self.ok_rows[weight][source])


def dense_dominance(graph: CompiledGraph) -> "_DenseDominance | None":
    """The dense fast-path certificate, or ``None`` when unavailable.

    Requires a complete graph (the geo-factory shape); any other
    topology routes every source through the ordinary passes. NumPy is
    imported here, on first use, so importing the router does not load
    it. The certificate is per ``(source,
    weight)``: mixed graphs run Dijkstra only for the rows that need it.
    """
    if not graph.is_complete() or len(graph) < 3:
        return None
    import numpy as np

    return _DenseDominance(graph, np)


def compile_source_routes(
    graph: CompiledGraph,
    source: int,
    targets,
    dense: "_DenseDominance | None" = None,
    reuse: "tuple[int, dict[int, tuple[int, ...]]] | None" = None,
) -> tuple[dict[int, PairRoute], int]:
    """Classify every ``(source, target)`` pair in one batched sweep.

    Runs the min-propagation and min-transfer passes for *source* (or
    skips either via the *dense* direct-dominance certificate) and
    classifies each requested target. Returns ``(routes, dijkstra_runs)``
    where *routes* maps target index to its :class:`PairRoute` and
    *dijkstra_runs* counts the actual passes executed (0, 1 or 2).

    *reuse* -- ``(weight, {target: index_path})`` -- skips that weight's
    pass and substitutes the given per-target paths. Sound only when the
    caller knows that weight's graph is unchanged since the paths were
    computed (e.g. a speed-only degrade leaves every propagation weight
    and the adjacency intact), in which case a fresh pass -- being
    deterministic on identical inputs -- would reproduce them exactly.
    """
    runs = 0
    parents: list[list[int] | None] = [None, None]
    dists: list[list[float | None] | None] = [None, None]
    direct = [False, False]
    for weight in (WEIGHT_PROPAGATION, WEIGHT_TRANSFER):
        if reuse is not None and reuse[0] == weight:
            continue
        if dense is not None and dense.row_ok(source, weight):
            direct[weight] = True
            continue
        dist, parent = _dijkstra(graph, source, weight)
        dists[weight], parents[weight] = dist, parent
        runs += 1

    def pass_path(weight: int, target: int) -> tuple[int, ...]:
        if reuse is not None and reuse[0] == weight:
            return reuse[1][target]
        if direct[weight]:
            return (source, target)
        if dists[weight][target] is None:
            raise _no_route(graph, source, target)
        return _reconstruct(parents[weight], source, target)

    routes: dict[int, PairRoute] = {}
    for target in targets:
        if target == source:
            continue
        path_zero = pass_path(WEIGHT_PROPAGATION, target)
        path_large = pass_path(WEIGHT_TRANSFER, target)
        routes[target] = classify_pair(graph, path_zero, path_large)
    return routes, runs
