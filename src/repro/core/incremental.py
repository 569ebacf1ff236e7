"""Incremental move evaluation for deployment search.

Every search algorithm in this repository explores the *move*
neighbourhood -- relocate one operation to another server -- but the
:class:`~repro.core.cost.CostModel` prices each candidate from scratch:
two O(M) validation passes, a full load recompute and a complete forward
pass over the DAG, even though a single move only perturbs the moved
operation's region. This module provides the cheap per-candidate
evaluation that makes search over deployment spaces tractable at scale:

:class:`MoveEvaluator`
    Attaches once to a ``(CostModel, Deployment)`` pair -- validating a
    single time -- and answers ``propose(op, server)`` in time
    proportional to the *affected region*: the compiled per-``(op,
    server)`` ``Tproc`` table, the per-server-pair affine route-delay
    coefficients, O(1) running-sum load deltas (the penalty statistic
    itself is O(N) for ``mad``/``std``-style modes because the mean
    shifts), and a dirty-region forward pass that recomputes ``finish()``
    only for the moved operation's descendants. ``scan()`` prices the
    whole single-move neighbourhood in one vectorised call, entry for
    entry the same floats as ``propose_value``.

Algorithms that price complete candidate mappings (genetic genomes,
branch-and-bound leaves, the 32 000-sample quality protocol) call
:meth:`CompiledInstance.components
<repro.core.compiled.CompiledInstance.components>` or the batch kernel
directly.

The evaluator borrows the cost model's
:class:`~repro.core.compiled.CompiledInstance` instead of building
private tables: one compilation of the problem instance serves the cost
model, every evaluator attached to it, the simulation engine and the
fleet. Dirty-region orders are memoised *on the artifact*, so
concurrent searches over the same instance share them too.

The evaluator is guarded by an equivalence contract: for any reachable
state, :attr:`MoveEvaluator.objective` agrees with
:meth:`CostModel.evaluate` to 1e-9 (the property tests assert it).
The forward pass is bit-identical because every term is computed from
the same operands in the same order; the evaluator's load values come
from running-sum deltas, which can differ from a from-scratch sum by
ulps from the first move on (drift is bounded by a periodic resync).
:meth:`MoveEvaluator.scan` is held to the stricter contract of bit
equality with :meth:`MoveEvaluator.propose_value`.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.compiled import ordered_sum
from repro.core.cost import CostBreakdown, CostModel
from repro.core.mapping import Deployment
from repro.exceptions import DeploymentError

__all__ = ["MoveEvaluator", "MoveOutcome"]

#: Commits between full load-table resyncs (bounds floating-point drift
#: of the running sums; the forward pass needs no resync -- it is exact).
DEFAULT_RESYNC_INTERVAL = 256

#: Most moves :meth:`MoveEvaluator.scan` prices per kernel call: the
#: neighbourhood grid is evaluated in blocks of whole operations, so a
#: wide network never materialises its ``(M * S, M)`` grid (or the
#: ``(M * S, S)`` trial-load matrix) in one piece.
SCAN_BLOCK_ROWS = 4096


@dataclass(frozen=True)
class MoveOutcome:
    """The evaluation of one proposed move.

    Attributes
    ----------
    operation, server:
        The proposed move: relocate *operation* onto *server*.
    previous_server:
        Where the operation currently lives.
    objective, execution_time, time_penalty:
        The cost the deployment would have *after* the move.
    delta:
        ``objective - current objective`` (negative improves).
    migration_cost:
        The deployment's total migration cost vs the transition
        baseline *after* the move (0.0 when not transition-aware).
    """

    operation: str
    server: str
    previous_server: str
    objective: float
    execution_time: float
    time_penalty: float
    delta: float
    migration_cost: float = 0.0


class MoveEvaluator:
    """Incremental objective evaluation over single-operation moves.

    Attaches to a ``(cost_model, deployment)`` pair; the deployment is
    validated exactly once, here. After attachment the evaluator owns
    the move lifecycle: query candidates with :meth:`propose` (no
    mutation), make the last proposal real with :meth:`commit` (which
    also updates the attached :class:`~repro.core.mapping.Deployment`
    in place), or do both with :meth:`apply`; :meth:`scan` prices every
    move at once for neighbourhood searches. Mutating the deployment
    behind the evaluator's back desynchronises it -- call
    :meth:`resync` if that cannot be avoided.

    All static problem data -- index maps, ``Tproc``, route-delay
    coefficients, join weights, dirty regions -- comes from the cost
    model's shared :class:`~repro.core.compiled.CompiledInstance`; the
    evaluator itself holds only the running state of its deployment.

    Parameters
    ----------
    cost_model:
        The cost model defining the objective.
    deployment:
        A complete mapping; taken over (and kept in sync) by the
        evaluator.
    resync_interval:
        Commits between from-scratch load-table recomputations, bounding
        running-sum floating-point drift. ``0`` disables resyncs.
    """

    def __init__(
        self,
        cost_model: CostModel,
        deployment: Deployment,
        resync_interval: int = DEFAULT_RESYNC_INTERVAL,
    ):
        if resync_interval < 0:
            raise DeploymentError("resync_interval must be >= 0")
        deployment.validate(cost_model.workflow, cost_model.network)
        self.cost_model = cost_model
        self.compiled = cost_model.compiled
        self.deployment = deployment
        self.resync_interval = resync_interval
        self._pending: tuple | None = None
        self._commits_since_resync = 0
        #: Number of :meth:`propose` evaluations answered (diagnostics).
        self.proposals = 0
        self.resync()

    # ------------------------------------------------------------------
    # state (re)construction
    # ------------------------------------------------------------------
    def resync(self) -> None:
        """Recompute every running table from the attached deployment.

        Called on attach, after external deployment mutation, and
        periodically (every *resync_interval* commits) to squash
        running-sum drift.
        """
        compiled = self.compiled
        self._servers: list[int] = compiled.server_vector(self.deployment)
        # running per-server weighted-cycle sums, in cost-model load order
        cycles = [0.0] * compiled.num_servers
        wcycles = compiled.wcycles
        for op in range(compiled.num_ops):
            cycles[self._servers[op]] += wcycles[op]
        self._cycles = cycles
        self._finish: list[float] = compiled.forward_pass(self._servers)
        self._proc_total = compiled.processing_time(self._servers)
        self._comm_total = compiled.communication_time(self._servers)
        # load values as a positional list (cost-model server order) so a
        # proposal can patch two slots instead of rebuilding the list
        power = compiled.power
        self._loads_list = [
            cycles[j] / power[j] for j in range(compiled.num_servers)
        ]
        self._migration = compiled.migration_cost(self._servers)
        self._refresh_scalars()
        self._pending = None
        self._commits_since_resync = 0

    def _refresh_scalars(self) -> None:
        compiled = self.compiled
        self._execution = compiled.execution_from(self._finish)
        self._penalty = compiled.penalty(self._loads_list)
        self._objective = compiled.objective_value(
            self._execution, self._penalty, self._migration
        )

    # ------------------------------------------------------------------
    # current state
    # ------------------------------------------------------------------
    @property
    def objective(self) -> float:
        """The scalar objective of the attached deployment."""
        return self._objective

    @property
    def execution_time(self) -> float:
        """``Texecute`` of the attached deployment."""
        return self._execution

    @property
    def time_penalty(self) -> float:
        """The fairness penalty of the attached deployment."""
        return self._penalty

    @property
    def migration_cost(self) -> float:
        """Total migration cost vs the baseline (0.0 when not aware)."""
        return self._migration

    def response_times(self) -> dict[str, float]:
        """Per-operation finish times (a copy of the running table)."""
        compiled = self.compiled
        finish = self._finish
        return {compiled.op_names[op]: finish[op] for op in compiled.order}

    def loads(self) -> dict[str, float]:
        """Per-server load in seconds (from the running cycle sums)."""
        compiled = self.compiled
        return {
            compiled.server_names[j]: self._cycles[j] / compiled.power[j]
            for j in range(compiled.num_servers)
        }

    def breakdown(self) -> CostBreakdown:
        """A full :class:`~repro.core.cost.CostBreakdown`, incrementally.

        Matches :meth:`CostModel.evaluate` on the attached deployment
        (to within running-sum drift, see the module docstring).
        """
        return CostBreakdown(
            execution_time=self._execution,
            time_penalty=self._penalty,
            objective=self._objective,
            loads=self.loads(),
            communication_time=self._comm_total,
            processing_time=self._proc_total,
            response_times=self.response_times(),
            migration_cost=self._migration,
        )

    # ------------------------------------------------------------------
    # the move lifecycle
    # ------------------------------------------------------------------
    def propose(self, operation: str, server: str) -> MoveOutcome:
        """Price moving *operation* onto *server* without mutating.

        Cost: one dirty-region forward pass (the operation and its
        descendants) plus an O(N) penalty refresh; nothing else is
        touched. The result is cached so an immediately following
        :meth:`commit` is free.
        """
        compiled = self.compiled
        op = compiled.op_index[operation]
        target = compiled.server_index.get(server)
        if target is None:
            raise DeploymentError(
                f"cannot move {operation!r}: unknown server {server!r}"
            )
        source = self._servers[op]
        if target == source:
            outcome = MoveOutcome(
                operation, server, server,
                self._objective, self._execution, self._penalty, 0.0,
                self._migration,
            )
            self._pending = None
            return outcome
        self.proposals += 1
        priced = self._price(op, target, source)
        objective, execution, penalty = priced[0], priced[1], priced[2]
        outcome = MoveOutcome(
            operation,
            server,
            compiled.server_names[source],
            objective,
            execution,
            penalty,
            objective - self._objective,
            priced[8],
        )
        self._pending = (outcome, op, target, source) + priced[3:]
        return outcome

    def propose_value(self, operation: str, server: str) -> float:
        """Scalar objective of the move -- the scan-loop fast path.

        Same float results as :meth:`propose`, but nothing is packaged
        into a :class:`MoveOutcome` and nothing is cached for
        :meth:`commit` (any previously pending move is dropped). Use it
        for neighbourhood scans that only compare objectives and
        re-:meth:`propose` the winner.
        """
        compiled = self.compiled
        op = compiled.op_index[operation]
        target = compiled.server_index.get(server)
        if target is None:
            raise DeploymentError(
                f"cannot move {operation!r}: unknown server {server!r}"
            )
        self._pending = None
        source = self._servers[op]
        if target == source:
            return self._objective
        self.proposals += 1
        return self._price(op, target, source)[0]

    def scan(self) -> "np.ndarray":
        """The objective of every single-operation move, in one call.

        Returns a ``(M * S,)`` float array in which entry ``op * S + s``
        equals ``propose_value(op_names[op], server_names[s])`` bit for
        bit: the exact twin of :meth:`propose_value`, *not* of
        :meth:`CostModel.evaluate <repro.core.cost.CostModel.evaluate>`
        (a move's two server loads come from the running sums, exactly
        as :meth:`_price` derives them). Entries where ``s`` is the
        operation's current server hold the current objective, so they
        never win a strict-improvement test. Counts ``M * (S - 1)``
        :attr:`proposals` and drops any pending move, like that many
        :meth:`propose_value` calls.

        The execution times come from the shared
        :class:`~repro.core.batch.BatchEvaluator` forward pass over the
        neighbourhood grid, evaluated in blocks of at most
        :data:`SCAN_BLOCK_ROWS` moves so memory stays bounded on wide
        networks.
        """
        import numpy as np

        from repro.core.batch import penalty_rows

        compiled = self.compiled
        batch = compiled.batch_evaluator()
        num_ops = compiled.num_ops
        num_servers = compiled.num_servers
        self._pending = None
        self.proposals += num_ops * (num_servers - 1)
        current = np.asarray(self._servers, dtype=np.intp)
        cycles = np.asarray(self._cycles)
        power = np.asarray(compiled.power)
        wcycles = np.asarray(compiled.wcycles)
        loads = np.asarray(self._loads_list)
        values = np.empty(num_ops * num_servers)
        block = max(1, SCAN_BLOCK_ROWS // num_servers)
        for start in range(0, num_ops, block):
            stop = min(start + block, num_ops)
            count = stop - start
            rows = count * num_servers
            source = current[start:stop]
            weighted = wcycles[start:stop]
            # the two-slot load patch of _price, one row per move: the
            # source slot loses the op's cycles, the target slot gains them
            trial = np.repeat(loads[None, :], rows, axis=0)
            every = np.arange(rows)
            trial[every, np.repeat(source, num_servers)] = np.repeat(
                (cycles[source] - weighted) / power[source], num_servers
            )
            trial[every, every % num_servers] = (
                (cycles[None, :] + weighted[:, None]) / power[None, :]
            ).ravel()
            execution = batch.execution(
                batch.neighborhood(current, range(start, stop))
            )
            objective = (
                compiled.execution_weight * execution
                + compiled.penalty_weight
                * penalty_rows(trial, compiled.penalty_mode)
            )
            if compiled.transition_aware:
                # (m + row[dst]) - row[src]: the association of _price
                table = np.asarray(compiled.migration_table[start:stop])
                migration = (self._migration + table) - table[
                    np.arange(count), source
                ][:, None]
                objective = (
                    objective + compiled.migration_weight * migration.ravel()
                )
            values[start * num_servers:stop * num_servers] = objective
        values[np.arange(num_ops) * num_servers + current] = self._objective
        return values

    def _price(self, op: int, target: int, source: int):
        """Dirty-region pricing core shared by propose/propose_value.

        Returns ``(objective, execution, penalty, new_finish,
        source_cycles, target_cycles, source_load, target_load,
        migration)`` where *new_finish* maps dirty op indices to their
        new finish times and *migration* is the deployment's total
        migration cost after the move.
        """
        compiled = self.compiled
        # dirty-region forward pass over {op} U descendants; the server
        # vector is patched in place for the pass (and restored) rather
        # than copied -- plain list indexing in the hot loop
        servers = self._servers
        old_finish = self._finish
        new_finish: dict[int, float] = {}
        servers[op] = target
        try:
            incoming_all = compiled.incoming
            tproc = compiled.tproc
            join = compiled.join_code
            weights_all = compiled.xor_weights
            weight_total = compiled.xor_weight_total
            routes = compiled.routes
            delay = compiled.delay
            get = new_finish.get
            for node in compiled.dirty_order(op):
                incoming = incoming_all[node]
                if not incoming:
                    ready = 0.0
                else:
                    dst = servers[node]
                    arrivals = []
                    append = arrivals.append
                    for src, size_bits, _w in incoming:
                        upstream = get(src)
                        if upstream is None:
                            upstream = old_finish[src]
                        coeff = routes[servers[src]][dst]
                        if coeff:
                            d = coeff[0] + size_bits * coeff[1]
                        else:
                            d = delay(servers[src], dst, size_bits)
                        append(upstream + d)
                    code = join[node]
                    if code == 2:  # JOIN_XOR
                        total = weight_total[node]
                        if total <= 0:
                            ready = max(arrivals)
                        else:
                            ready = (
                                ordered_sum(
                                    w * a
                                    for w, a in zip(
                                        weights_all[node], arrivals
                                    )
                                )
                                / total
                            )
                    elif code == 1:  # JOIN_MIN
                        ready = min(arrivals)
                    else:
                        ready = max(arrivals)
                new_finish[node] = ready + tproc[node][servers[node]]
        finally:
            servers[op] = source
        execution = max(
            (
                new_finish[node]
                if node in new_finish
                else old_finish[node]
            )
            for node in compiled.exits
        )
        # O(1) running-sum load delta on the two affected servers; the
        # shared loads list is patched in place (and restored) so the
        # penalty statistic reads positionally, with no per-server branch
        weighted = compiled.wcycles[op]
        new_source_cycles = self._cycles[source] - weighted
        new_target_cycles = self._cycles[target] + weighted
        source_load = new_source_cycles / compiled.power[source]
        target_load = new_target_cycles / compiled.power[target]
        loads = self._loads_list
        old_i, old_j = loads[source], loads[target]
        loads[source] = source_load
        loads[target] = target_load
        try:
            penalty = compiled.penalty(loads)
        finally:
            loads[source] = old_i
            loads[target] = old_j
        if compiled.transition_aware:
            # O(1) migration delta: only the moved op's table row changes
            row = compiled.migration_table[op]
            migration = self._migration + row[target] - row[source]
        else:
            migration = self._migration
        objective = compiled.objective_value(execution, penalty, migration)
        return (
            objective,
            execution,
            penalty,
            new_finish,
            new_source_cycles,
            new_target_cycles,
            source_load,
            target_load,
            migration,
        )

    def commit(self) -> MoveOutcome:
        """Make the last :meth:`propose` real.

        Applies the cached dirty-region results, updates the running
        sums and assigns the move into the attached deployment. Raises
        when there is nothing to commit.
        """
        if self._pending is None:
            raise DeploymentError(
                "no pending move: call propose() before commit()"
            )
        (
            outcome,
            op,
            target,
            source,
            new_finish,
            source_cycles,
            target_cycles,
            source_load,
            target_load,
            migration,
        ) = self._pending
        self._pending = None
        compiled = self.compiled
        servers = self._servers
        servers[op] = target
        self.deployment.assign(outcome.operation, outcome.server)
        finish = self._finish
        for node, value in new_finish.items():
            finish[node] = value
        self._cycles[source] = source_cycles
        self._cycles[target] = target_cycles
        self._loads_list[source] = source_load
        self._loads_list[target] = target_load
        # diagnostics totals: O(degree) message + O(1) processing deltas
        tproc_row = compiled.tproc[op]
        self._proc_total += compiled.node_prob[op] * (
            tproc_row[target] - tproc_row[source]
        )
        delay = compiled.delay
        for src, size_bits, weight in compiled.incoming[op]:
            src_server = servers[src]
            self._comm_total += weight * (
                delay(src_server, target, size_bits)
                - delay(src_server, source, size_bits)
            )
        for dst, size_bits, weight in compiled.outgoing[op]:
            dst_server = servers[dst]
            self._comm_total += weight * (
                delay(target, dst_server, size_bits)
                - delay(source, dst_server, size_bits)
            )
        self._execution = outcome.execution_time
        self._penalty = outcome.time_penalty
        self._objective = outcome.objective
        self._migration = migration
        self._commits_since_resync += 1
        if (
            self.resync_interval
            and self._commits_since_resync >= self.resync_interval
        ):
            self.resync()
        return outcome

    def apply(self, operation: str, server: str) -> MoveOutcome:
        """:meth:`propose` + :meth:`commit` in one call.

        A no-op (returned outcome has ``delta == 0``) when the operation
        already lives on *server*.
        """
        outcome = self.propose(operation, server)
        if self._pending is not None:
            self.commit()
        return outcome

