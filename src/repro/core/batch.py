"""Vectorized batch evaluation of deployments over the compiled IR.

Every population- or sweep-shaped consumer used to score deployments one
mapping at a time through scalar Python loops: the genetic algorithm per
chromosome, the 32 000-draw quality protocol per sample, the hill
climber per candidate move, the fleet controller per rebalance
candidate. :class:`BatchEvaluator` scores a whole *batch* of deployments
-- a ``(K, M)`` integer array of server choices, one row per candidate
-- in NumPy across the batch axis:

* the router's shared route table
  (:meth:`~repro.network.routing.Router.route_table`) is materialised
  once per router as :class:`DenseRoutes`: dense ``(S, S)`` base/rate
  matrices plus one delay matrix per distinct message size, so genuinely
  size-dependent pairs are priced through the router exactly once per
  size -- for every evaluator on that router, whichever tenant or
  instance it belongs to;
* the topological forward pass runs as ``M`` vectorized steps over
  ``K``-vectors -- ``Tproc`` gathered from the ``(M, S)`` table, message
  delays via fancy-indexed endpoint lookups, and probability-weighted
  ``XOR`` joins accumulated in arrival order;
* per-server loads come from an op-ordered scatter-add and the penalty
  statistic is evaluated column-sequentially, so every reduction runs in
  the exact floating-point order of the scalar path.

**Determinism contract.** Each returned value is computed from exactly
the operands, in exactly the order, that
:meth:`~repro.core.compiled.CompiledInstance.forward_pass`,
:meth:`~repro.core.compiled.CompiledInstance.load_values` and
:meth:`~repro.core.compiled.CompiledInstance.penalty` use -- IEEE-754
double arithmetic is the same whether the lanes are Python floats or
NumPy float64 vectors -- so batch scores are bit-identical to the scalar
path wherever the operation order matches (the parity property suite
pins this). That scalar path is full evaluation, *not*
:class:`~repro.core.incremental.MoveEvaluator`: the evaluator prices a
move's two server loads by running-sum deltas, which can differ from
the kernel's from-scratch sums by ulps, so a search priced through
:meth:`evaluate` may break a near-tie differently from one priced move
by move. :meth:`MoveEvaluator.scan
<repro.core.incremental.MoveEvaluator.scan>` therefore takes only
:meth:`BatchEvaluator.execution` from the kernel and patches the loads
itself.

NumPy is a required dependency. Consumers still import this module on
first use (:meth:`CompiledInstance.batch_evaluator
<repro.core.compiled.CompiledInstance.batch_evaluator>`), so a bare
``import repro`` does not load NumPy.
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from repro.core.compiled import (
    JOIN_MIN,
    JOIN_XOR,
    CompiledInstance,
)
from repro.exceptions import DeploymentError
from repro.network.routing import Router

__all__ = ["BatchEvaluator", "BatchScores", "DenseRoutes", "penalty_rows"]


@dataclass(frozen=True)
class BatchScores:
    """Scores of one evaluated batch, one entry per row.

    Attributes
    ----------
    execution, penalty, objective:
        ``(K,)`` float arrays: ``Texecute``, the fairness penalty and
        the scalar objective of each batch row, bit-identical to the
        scalar :meth:`~repro.core.compiled.CompiledInstance.components`
        of that row.
    migration:
        ``(K,)`` float array of per-row migration costs vs the
        transition baseline (already folded into ``objective`` with the
        migration weight); ``None`` when the compiled instance is not
        transition-aware.
    """

    execution: "np.ndarray"
    penalty: "np.ndarray"
    objective: "np.ndarray"
    migration: "np.ndarray | None" = None

    def __len__(self) -> int:
        """Number of scored rows."""
        return len(self.objective)


def penalty_rows(loads: "np.ndarray", mode: str) -> "np.ndarray":
    """The fairness statistic of every row of a ``(K, S)`` load matrix.

    Column-sequential accumulation over the server axis keeps every sum
    in the left-to-right order of the scalar
    :func:`~repro.core.compiled.penalty_statistic`, so row ``k`` equals
    ``penalty_statistic(loads[k], mode)`` bit for bit.
    """
    count, servers = loads.shape
    if servers == 0:  # pragma: no cover - networks are never empty
        return np.zeros(count)
    acc = np.zeros(count)
    for j in range(servers):
        acc += loads[:, j]
    mean = acc / servers
    if mode == "max":
        worst = np.abs(loads[:, 0] - mean)
        for j in range(1, servers):
            np.maximum(worst, np.abs(loads[:, j] - mean), out=worst)
        return worst
    if mode == "std":
        squares = np.zeros(count)
        for j in range(servers):
            deviation = np.abs(loads[:, j] - mean)
            squares += deviation * deviation
        return np.sqrt(squares / servers)
    total = np.zeros(count)
    for j in range(servers):
        total += np.abs(loads[:, j] - mean)
    if mode == "sum_abs":
        return total
    return total / servers  # mad


class DenseRoutes:
    """Dense ``(S, S)`` delay matrices over one router's route table.

    The batch kernel's half of the shared topology: built once per
    :class:`~repro.network.routing.Router` and borrowed by every
    :class:`BatchEvaluator` on it, whichever instance or tenant it
    prices. Obtain it through :meth:`of`.

    Attributes
    ----------
    base, rate:
        ``(S, S)`` propagation and per-bit transfer coefficients of the
        affine pairs (zero for size-dependent pairs).
    sized_pairs:
        The genuinely size-dependent index pairs, priced through the
        router per message size.
    matrices:
        Message size -> ``(S, S)`` delay matrix, filled on demand
        (:meth:`matrix`). Evaluators hold references to these arrays,
        so :meth:`refresh` rewrites them in place.
    """

    def __init__(self, router: Router):
        # weak: the router owns these matrices, and a cycle would leave
        # every discarded router to the cyclic garbage collector
        self._router = weakref.ref(router)
        self.matrices: dict[float, np.ndarray] = {}
        self._read()

    @property
    def router(self) -> Router:
        """The router whose route table these matrices are read from."""
        return self._router()

    @classmethod
    def of(cls, router: Router) -> "DenseRoutes":
        """The dense matrices of *router*, built on first use."""
        dense = router.dense
        if dense is None:
            dense = router.dense = cls(router)
        return dense

    def _read(self) -> None:
        """Read the route table into dense ``base``/``rate`` matrices.

        Resolves every unresolved pair through the router (row-major,
        counted as router queries). Genuinely size-dependent pairs are
        collected instead: they are priced per message size when a
        delay matrix is built.
        """
        router = self.router
        routes = router.route_table()
        servers = len(routes)
        base = np.zeros((servers, servers))
        rate = np.zeros((servers, servers))
        sized_pairs: list[tuple[int, int]] = []
        for i in range(servers):
            row = routes[i]
            for j in range(servers):
                coeff = row[j]
                if coeff is None:
                    coeff = router.resolve(i, j)
                if coeff:
                    base[i, j] = coeff[0]
                    rate[i, j] = coeff[1]
                else:
                    sized_pairs.append((i, j))
        self.base = base
        self.rate = rate
        self.sized_pairs = tuple(sized_pairs)

    def _sized_times(
        self, pairs: Sequence[tuple[int, int]], size_bits: float
    ) -> list[float]:
        router = self.router
        names = router.server_names
        return router.transmission_times(
            [(names[i], names[j]) for i, j in pairs], size_bits
        )

    def matrix(self, size_bits: float) -> "np.ndarray":
        """The dense ``(S, S)`` delay matrix for one message size.

        ``base + size * rate`` elementwise -- the same expression the
        scalar :meth:`~repro.core.compiled.CompiledInstance.delay`
        evaluates per query, so every entry is the identical float.
        Size-dependent pairs are answered by the router, once per size.
        """
        matrix = self.matrices.get(size_bits)
        if matrix is None:
            matrix = self.base + size_bits * self.rate
            if self.sized_pairs:
                values = self._sized_times(self.sized_pairs, size_bits)
                for (i, j), value in zip(self.sized_pairs, values):
                    matrix[i, j] = value
            self.matrices[size_bits] = matrix
        return matrix

    def refresh(self, affected: "set[tuple[int, int]] | None" = None) -> None:
        """Rebuild every matrix in place after a route refresh.

        Called by :meth:`Router.invalidate
        <repro.network.routing.Router.invalidate>` once the route table
        holds the post-event slots: re-reads every pair into
        ``base``/``rate`` and recomputes each per-size matrix **in
        place**, because evaluators' per-operation incoming tuples hold
        references to those arrays.

        *affected* is the set of canonical index pairs ``(i, j)``,
        ``i < j``, that :meth:`~repro.network.routing.Router.invalidate`
        returned: every pair whose slot changed or whose per-size paths
        it dropped. A size-dependent pair outside it kept every per-size
        path of a retained size, so its matrix entries are kept
        verbatim instead of re-running one Dijkstra per message size.
        ``None`` means every pair may have changed -- re-query them all.
        """
        self._read()
        base = self.base
        rate = self.rate
        for size_bits, matrix in self.matrices.items():
            kept = {
                (i, j): matrix[i, j]
                for i, j in self.sized_pairs
                if affected is not None
                and ((i, j) if i < j else (j, i)) not in affected
            }
            matrix[...] = base + size_bits * rate
            requery: list[tuple[int, int]] = []
            for i, j in self.sized_pairs:
                value = kept.get((i, j))
                if value is not None:
                    matrix[i, j] = value
                else:
                    requery.append((i, j))
            if requery:
                for (i, j), value in zip(
                    requery, self._sized_times(requery, size_bits)
                ):
                    matrix[i, j] = value


class BatchEvaluator:
    """Score batches of deployments against one compiled instance.

    Built once from a :class:`~repro.core.compiled.CompiledInstance`;
    each :meth:`evaluate` call then prices ``K`` candidate deployments
    in ``M`` vectorized steps. The per-instance part is small -- the
    ``Tproc`` table, loads and migration costs -- because the dense
    delay matrices are the router's shared :class:`DenseRoutes`,
    resolved once for every evaluator on that router. Obtain the
    shared per-artifact evaluator through
    :meth:`CompiledInstance.batch_evaluator
    <repro.core.compiled.CompiledInstance.batch_evaluator>` rather than
    constructing duplicates.

    Parameters
    ----------
    compiled:
        The compiled problem instance to evaluate against.

    Attributes
    ----------
    routes:
        The shared :class:`DenseRoutes` of the instance's router.
    """

    def __init__(self, compiled: CompiledInstance):
        self.compiled = compiled
        self.num_ops = compiled.num_ops
        self.num_servers = compiled.num_servers
        self._order = compiled.order
        self._exits = compiled.exits
        self._join = compiled.join_code
        self._tproc = np.asarray(compiled.tproc, dtype=np.float64)
        self._wcycles = np.asarray(compiled.wcycles, dtype=np.float64)
        self._power = np.asarray(compiled.power, dtype=np.float64)
        self._xor_weights = compiled.xor_weights
        self._xor_total = compiled.xor_weight_total
        # (M, S) migration-cost table when transition-aware, else None
        self._migration_table = (
            np.asarray(compiled.migration_table, dtype=np.float64)
            if compiled.transition_aware
            else None
        )

        # ---- per-operation incoming edges, shared delay matrix attached
        self.routes = DenseRoutes.of(compiled.router)
        matrix = self.routes.matrix
        self._incoming: tuple[tuple[tuple[int, "np.ndarray"], ...], ...] = (
            tuple(
                tuple(
                    (src, matrix(size_bits))
                    for src, size_bits, _weight in compiled.incoming[op]
                )
                for op in range(self.num_ops)
            )
        )

    def refresh_routes(self) -> None:
        """Re-read the instance's migration table after a route refresh.

        Called by :meth:`CompiledInstance.refresh_routes
        <repro.core.compiled.CompiledInstance.refresh_routes>` of a
        transition-aware instance once its migration rows are re-priced.
        The delay matrices need nothing here: the router refreshed the
        shared :class:`DenseRoutes` in place before.
        """
        self._migration_table = np.asarray(
            self.compiled.migration_table, dtype=np.float64
        )

    # ------------------------------------------------------------------
    # batch construction helpers
    # ------------------------------------------------------------------
    def index_batch(self, genomes: Iterable[Sequence[str]]) -> "np.ndarray":
        """``(K, M)`` index batch from server-*name* genomes.

        Each genome lists one server name per operation **in compiled
        operation order** (the workflow's ``operation_names`` order --
        what the genetic algorithm and the sampler draw). Unknown names
        raise :class:`~repro.exceptions.DeploymentError`.
        """
        server_index = self.compiled.server_index
        try:
            rows = [
                [server_index[name] for name in genome] for genome in genomes
            ]
        except KeyError as exc:
            raise DeploymentError(
                f"unknown server {exc.args[0]!r} in batch genome"
            ) from None
        if not rows:
            return np.empty((0, self.num_ops), dtype=np.intp)
        return np.asarray(rows, dtype=np.intp)

    def neighborhood(
        self, servers: Sequence[int], operations: range | None = None
    ) -> "np.ndarray":
        """The single-move neighbourhood grid of one server vector.

        Returns the ``(M * S, M)`` batch in which row ``op * S + s``
        relocates operation ``op`` onto server ``s`` (rows where ``s``
        is the operation's current server are no-op rows scoring the
        incumbent). Row order matches the hill-climbing scan --
        operations outer, servers inner. *operations* (a contiguous
        ``range`` of operation indices, default all) restricts the grid
        to the rows of those operations, in the same order.
        """
        base = np.asarray(servers, dtype=np.intp)
        if base.shape != (self.num_ops,):
            raise DeploymentError(
                f"server vector must have length {self.num_ops}, got "
                f"shape {base.shape}"
            )
        if operations is None:
            operations = range(self.num_ops)
        count = len(operations) * self.num_servers
        grid = np.repeat(base[None, :], count, axis=0)
        rows = np.arange(count)
        grid[rows, operations.start + rows // self.num_servers] = (
            rows % self.num_servers
        )
        return grid

    # ------------------------------------------------------------------
    # the batched kernel
    # ------------------------------------------------------------------
    def _coerce(self, batch) -> "np.ndarray":
        b = np.asarray(batch, dtype=np.intp)
        if b.ndim == 1 and b.size == 0:
            b = b.reshape(0, self.num_ops)
        if b.ndim != 2 or b.shape[1] != self.num_ops:
            raise DeploymentError(
                f"batch must be a (K, {self.num_ops}) array of server "
                f"indices, got shape {b.shape}"
            )
        if b.size and (b.min() < 0 or b.max() >= self.num_servers):
            raise DeploymentError(
                f"batch contains server indices outside "
                f"[0, {self.num_servers})"
            )
        return b

    def evaluate(self, batch) -> BatchScores:
        """Score every row of *batch*: ``(execution, penalty, objective)``.

        *batch* is any array-like coercible to a ``(K, M)`` integer
        array, ``batch[k][op_index] -> server_index``. ``K = 0`` is
        valid and returns empty arrays. Each row's three scores equal
        the scalar
        :meth:`~repro.core.compiled.CompiledInstance.components` of that
        row (see the module determinism contract).
        """
        b = self._coerce(batch)
        count = b.shape[0]
        if count == 0:
            empty = np.empty(0)
            return BatchScores(
                empty,
                empty.copy(),
                empty.copy(),
                empty.copy() if self._migration_table is not None else None,
            )
        # op-major transpose: bT[op] is one contiguous K-vector of the
        # batch's server choices for that operation
        bT = np.ascontiguousarray(b.T)
        execution = self._execution(bT)
        penalty = penalty_rows(self._loads(bT), self.compiled.penalty_mode)
        compiled = self.compiled
        objective = (
            compiled.execution_weight * execution
            + compiled.penalty_weight * penalty
        )
        if self._migration_table is None:
            return BatchScores(execution, penalty, objective)
        migration = self._migration(bT)
        # the same left-to-right order as the scalar objective_value:
        # (ew*e + pw*p) first, then + mw*m
        objective = objective + compiled.migration_weight * migration
        return BatchScores(execution, penalty, objective, migration)

    def execution(self, batch) -> "np.ndarray":
        """``Texecute`` of every row of *batch*, and nothing else.

        The forward pass of :meth:`evaluate` without the load scatter,
        penalty and objective: for callers that price the rest of the
        objective themselves (the fleet rebalancer combines every
        tenant's loads into one fleet-wide penalty). Each value equals
        ``evaluate(batch).execution`` bit for bit.
        """
        b = self._coerce(batch)
        if b.shape[0] == 0:
            return np.empty(0)
        return self._execution(np.ascontiguousarray(b.T))

    def _execution(self, bT: "np.ndarray") -> "np.ndarray":
        """``Texecute`` per row: the vectorized topological forward pass."""
        count = bT.shape[1]
        tproc = self._tproc
        join = self._join
        xor_weights = self._xor_weights
        xor_total = self._xor_total
        finish = np.empty((self.num_ops, count))
        for op in self._order:
            edges = self._incoming[op]
            row = tproc[op]
            dst = bT[op]
            if not edges:
                finish[op] = row[dst]
                continue
            code = join[op]
            if code == JOIN_XOR and xor_total[op] > 0:
                # probability-weighted average, accumulated in arrival
                # order (matches the scalar sequential sum bit-for-bit)
                total = xor_total[op]
                ready = None
                for (src, delay), weight in zip(edges, xor_weights[op]):
                    arrival = finish[src] + delay[bT[src], dst]
                    term = weight * arrival
                    ready = term if ready is None else ready + term
                ready = ready / total
            elif code == JOIN_MIN:
                ready = None
                for src, delay in edges:
                    arrival = finish[src] + delay[bT[src], dst]
                    ready = (
                        arrival
                        if ready is None
                        else np.minimum(ready, arrival)
                    )
            else:
                # plain/AND joins -- and XOR joins whose static weights
                # sum to zero, exactly as the scalar pass degrades
                ready = None
                for src, delay in edges:
                    arrival = finish[src] + delay[bT[src], dst]
                    ready = (
                        arrival
                        if ready is None
                        else np.maximum(ready, arrival)
                    )
            finish[op] = ready + row[dst]
        execution = finish[self._exits[0]].copy()
        for op in self._exits[1:]:
            np.maximum(execution, finish[op], out=execution)
        return execution

    def _loads(self, bT: "np.ndarray") -> "np.ndarray":
        """``(K, S)`` per-server loads in seconds.

        The scatter-add runs one operation at a time (row indices are
        unique within a step), so each ``(row, server)`` slot
        accumulates its weighted cycles in operation insertion order --
        the exact float sequence of the scalar
        :meth:`~repro.core.compiled.CompiledInstance.load_values`.
        """
        count = bT.shape[1]
        totals = np.zeros((count, self.num_servers))
        rows = np.arange(count)
        wcycles = self._wcycles
        for op in range(self.num_ops):
            totals[rows, bT[op]] += wcycles[op]
        return totals / self._power

    def _migration(self, bT: "np.ndarray") -> "np.ndarray":
        """``(K,)`` migration cost per row vs the transition baseline.

        Accumulates one operation at a time, so each row's total adds
        its table lookups in operation insertion order -- the exact
        float sequence of the scalar
        :meth:`~repro.core.compiled.CompiledInstance.migration_cost`.
        """
        count = bT.shape[1]
        table = self._migration_table
        totals = np.zeros(count)
        for op in range(self.num_ops):
            totals += table[op][bT[op]]
        return totals

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"BatchEvaluator(ops={self.num_ops}, "
            f"servers={self.num_servers})"
        )
