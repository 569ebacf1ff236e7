"""Batched all-pairs shortest-route compilation over a server network.

The :class:`~repro.network.routing.Router` classifies each server pair
from two shortest paths -- one by propagation delay (the size-0
optimum) and one by transfer coefficient (the size-infinity optimum).
This module computes them per *source*: :func:`source_row` runs one
single-source pass per weight over a prebuilt integer-indexed adjacency
snapshot with precomputed ``(propagation_s, 1/speed_bps)`` edge
weights, and every target of that source is classified from the two
passes: ``2 * S`` passes fill a full route table, where two targeted
networkx runs per pair, each driven through a Python-lambda weight
callback, would take ``2 * S * (S - 1)``.

**Exactness contract.** Every coefficient and representative path is
*byte-identical* to what per-pair networkx queries produce, because
the inner loop replicates networkx's ``_dijkstra_multisource``
semantics exactly:

* the fringe holds ``(distance, tie_counter, node)`` triples, so ties
  on equal distances resolve by push order;
* neighbours relax in graph adjacency (edge-insertion) order;
* a node's path updates only on a *strict* distance improvement
  (``vu_dist < seen[u]``), never on equality;
* distances accumulate as the left fold ``dist[v] + w`` and path
  coefficients as the left-to-right sums of
  :meth:`CompiledGraph.coefficients`, so every float is produced by the
  same IEEE-754 operation sequence.

A full single-source pass finalises, for each target, the exact path a
targeted run (which merely breaks early at the target's pop) would
return -- so batching changes *which* queries run, never their answers.
Its ``(dist, parent)`` arrays are a *row*, which :func:`row_survives`
certifies across link changes (DESIGN.md §15).

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
from weakref import WeakKeyDictionary

from repro.exceptions import DisconnectedNetworkError
from repro.network.topology import ServerNetwork

__all__ = [
    "CompiledGraph",
    "GraphChange",
    "classify_pair",
    "compile_graph",
    "crosses",
    "diff_graphs",
    "moved_targets",
    "row_path",
    "row_survives",
    "shortest_sized_path",
    "source_row",
]

#: Weight selectors of the two classification passes.
WEIGHT_PROPAGATION = 0
WEIGHT_TRANSFER = 1


#: One full single-source pass for one weight: ``(dist, parent)``.
Row = tuple[list, list[int]]

#: Elements of one ``(S, k, S)`` two-hop block of the dense certificate
#: (8 bytes each): graphs up to 160 servers take one block.
TWO_HOP_BLOCK = 160**3


class CompiledGraph:
    """An integer-indexed adjacency snapshot of one network generation.

    Built (cheaply, O(S + L)) once per network generation by
    :func:`compile_graph` and shared by every router on that
    generation; every Dijkstra pass runs over flat lists with
    precomputed weights instead of networkx dicts behind a lambda.
    A snapshot never changes after it is built, except that its dense
    certificate (:meth:`certificate`) is filled on first use.

    Attributes
    ----------
    name, generation:
        The network's name and mutation generation when the snapshot
        was taken; the snapshot holds no reference to the network.
    names, index:
        Server names in network (insertion) order and the inverse map.
    adjacency:
        ``adjacency[v] = [(u, propagation_s, inv_speed, speed_bps), ...]``
        in the *networkx adjacency order* of the underlying graph --
        the order networkx Dijkstra relaxes neighbours in, which the
        tie-counter semantics make observable.
    """

    __slots__ = ("name", "generation", "names", "index", "adjacency", "_dense")

    def __init__(self, network: ServerNetwork):
        self.name = network.name
        self.generation = network.generation
        self.names: tuple[str, ...] = network.server_names
        index = self.index = {name: i for i, name in enumerate(self.names)}
        adjacency: list[list[tuple[int, float, float, float]]] = []
        # graph nodes are the servers in insertion order, and each
        # edge's data holds its link
        for _name, neighbors in network.graph.adjacency():
            row: list[tuple[int, float, float, float]] = []
            for neighbor, data in neighbors.items():
                link = data["link"]
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
        self._dense: _DenseDominance | None | bool = None

    def __len__(self) -> int:
        return len(self.names)

    def is_complete(self) -> bool:
        """True when every server pair is directly linked."""
        n = len(self.names)
        return all(len(row) == n - 1 for row in self.adjacency)

    def certificate(self) -> "_DenseDominance | None":
        """This snapshot's :func:`dense_dominance` certificate, built once."""
        if self._dense is None:
            self._dense = dense_dominance(self) or False
        return self._dense or None

    def coefficients(
        self, path: tuple[int, ...]
    ) -> tuple[float, float]:
        """``(sum propagation, sum 1/speed)`` along *path* (index form).

        The one left-to-right fold of path coefficients, shared by
        classification and sized pricing -- identical floats.
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


#: network -> the snapshot of its current generation; weakly keyed, and
#: a snapshot holds no reference to its network, so a dropped network
#: frees its snapshot by reference counting
_SNAPSHOTS: WeakKeyDictionary = WeakKeyDictionary()


def compile_graph(network: ServerNetwork) -> CompiledGraph:
    """The :class:`CompiledGraph` of *network*'s current generation.

    Built on the first call per generation and shared by every later
    call until a mutation bumps :attr:`ServerNetwork.generation
    <repro.network.topology.ServerNetwork.generation>`.
    """
    graph = _SNAPSHOTS.get(network)
    # threads racing here may each build one: equal snapshots, no lock
    if graph is None or graph.generation != network.generation:
        graph = _SNAPSHOTS[network] = CompiledGraph(network)
    return graph


def _no_route(graph: CompiledGraph, source: int, target: int) -> Exception:
    return DisconnectedNetworkError(
        f"no route from {graph.names[source]!r} to "
        f"{graph.names[target]!r} in {graph.name!r}"
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
    float operations the original router's sized lambda used. A
    *target* stops the pass at the target's pop (the per-size
    fallback's fast path); without one the pass finalises every
    reachable node.

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
) -> tuple[float, float] | tuple[()]:
    """The pinned dominance classification of one server pair.

    Returns the pair's route-table slot: its affine
    ``(propagation_s, transfer_s_per_bit)`` coefficients, or ``()`` for
    a size-dependent pair. Byte-identical to the original per-pair
    router's branch order, which is therefore the frozen tie-break
    contract:

    1. ``transfer_zero <= transfer_large``: the min-propagation path
       also minimises the transfer coefficient -- size-independent,
       coefficients from ``path_zero``.
    2. else ``prop_large <= prop_zero``: the min-transfer path is also
       propagation-optimal -- size-independent, coefficients from
       ``path_large``.
    3. else genuinely size-dependent: per-size queries fall back to
       Dijkstra.
    """
    zero = graph.coefficients(path_zero)
    large = graph.coefficients(path_large)
    if zero[1] <= large[1]:
        return zero
    if large[0] <= zero[0]:
        return large
    return ()


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

    @staticmethod
    def _dominant_rows(weights, np):
        # two_hop[i, j] = min_k (W[i, k] + W[k, j]); k = i and k = j are
        # harmless (W[i, i] = 0 makes them the direct weight itself).
        # The minimum runs over blocks of k, each at most TWO_HOP_BLOCK
        # elements: min is exact, so the blocks change no float
        n = len(weights)
        step = max(1, TWO_HOP_BLOCK // (n * n))
        two_hop = np.full((n, n), np.inf)
        for k in range(0, n, step):
            block = weights[:, k : k + step, None] + weights[None, k : k + step, :]
            np.minimum(two_hop, block.min(axis=1), out=two_hop)
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


def source_row(
    graph: CompiledGraph,
    source: int,
    weight: int,
    dense: "_DenseDominance | None" = None,
) -> tuple[Row, int]:
    """The full-pass row of *source* for *weight*; ``(row, runs)``.

    A *dense*-certified row is the direct weights with parent *source*,
    exactly what the skipped pass returns, at ``runs == 0``.
    """
    if dense is not None and dense.row_ok(source, weight):
        size = len(graph.names)
        dist: list = [None] * size
        parent = [-1] * size
        dist[source] = 0
        for edge in graph.adjacency[source]:
            dist[edge[0]] = edge[1 + weight]
            parent[edge[0]] = source
        return (dist, parent), 0
    return _dijkstra(graph, source, weight), 1


def row_path(
    graph: CompiledGraph, row: Row, source: int, target: int
) -> tuple[int, ...]:
    """The finalised path ``source -> target`` of a full-pass row."""
    if row[0][target] is None:
        raise _no_route(graph, source, target)
    return _reconstruct(row[1], source, target)


def crosses(path: tuple[int, ...], edges) -> bool:
    """True when *path* traverses one of the directed *edges*."""
    return any(edge in edges for edge in zip(path, path[1:]))


@dataclass(frozen=True)
class GraphChange:
    """Per-edge difference between two snapshots of one server set.

    ``relaxed[weight]``: ``(x, y, new_weight)`` per directed edge that
    changed, was added or removed (``inf``), plus every edge out of a
    node whose adjacency order changed. ``moved``: directed edges whose
    link parameters changed. ``better[weight]``: an edge got cheaper,
    was added or reordered; when false, paths avoiding the changed
    edges keep their optimum (DESIGN.md §15). ``improved``: a link got
    faster, less laggy, added or reordered.
    """

    relaxed: tuple[tuple[tuple[int, int, float], ...], ...]
    moved: frozenset[tuple[int, int]]
    better: tuple[bool, bool]
    improved: bool


def diff_graphs(old: CompiledGraph, new: CompiledGraph) -> GraphChange:
    """Compare two snapshots of the same server set edge by edge."""
    relaxed: tuple[list, list] = ([], [])
    moved: set[tuple[int, int]] = set()
    better = [False, False]
    faster = False
    removed = (float("inf"), float("inf"), 0.0)  # an infinitely slow link
    for x, (before, after) in enumerate(zip(old.adjacency, new.adjacency)):
        if before == after:
            continue
        was = {edge[0]: edge for edge in before}
        now = {edge[0]: edge for edge in after}
        reordered = [u for u in was if u in now] != [u for u in now if u in was]
        now.update((y, (y, *removed)) for y in was.keys() - now.keys())
        for y, edge in now.items():
            prior = was.get(y)
            if prior != edge:
                moved.add((x, y))
                faster |= prior is not None and edge[3] > prior[3]
            for weight in (WEIGHT_PROPAGATION, WEIGHT_TRANSFER):
                value = edge[1 + weight]
                if reordered or prior is None or prior[1 + weight] != value:
                    relaxed[weight].append((x, y, value))
                    better[weight] |= (
                        reordered or prior is None or value < prior[1 + weight]
                    )
    return GraphChange(
        tuple(map(tuple, relaxed)),
        frozenset(moved),
        (better[0], better[1]),
        faster or any(better),
    )


def row_survives(row: Row, relaxed) -> bool:
    """True when re-running *row*'s pass would reproduce it exactly.

    Every changed edge ``(x, y, new_weight)`` of the row's weight must
    be off the tree (``parent[y] != x``) and strictly slower into ``y``
    than its final distance, ``dist[x] + new_weight > dist[y]``, in the
    pass's own float fold (proof sketch: DESIGN.md §15).
    """
    dist, parent = row
    for x, y, weight in relaxed:
        if parent[y] == x:
            return False
        before, head = dist[x], dist[y]
        if before is None or head is None or not before + weight > head:
            return False
    return True


def _below(row: Row, marked: set[int]) -> set[int]:
    """Nodes whose tree path passes a *marked* node, or unreachable."""
    dist, parent = row
    below: list = [None] * len(parent)
    for start in range(len(parent)):
        chain, node = [], start
        while node >= 0 and below[node] is None:
            chain.append(node)
            node = parent[node]
        flag = node >= 0 and below[node]
        for node in reversed(chain):
            below[node] = flag = flag or node in marked or dist[node] is None
    return {node for node, flag in enumerate(below) if flag}


def moved_targets(
    old: Row, new: Row, moved: frozenset[tuple[int, int]]
) -> set[int]:
    """Nodes whose path crosses a *moved* edge in *old* or differs in
    *new*: the targets whose classification may have changed."""
    heads = {y for x, y in moved if old[1][y] == x}
    dirty = _below(old, heads) if heads else set()
    if new is not old:
        dirty |= _below(
            new, {v for v, (a, b) in enumerate(zip(old[1], new[1])) if a != b}
        )
    return dirty
