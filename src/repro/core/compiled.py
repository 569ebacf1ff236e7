"""The compiled problem IR: one integer-indexed artifact per instance.

The paper's evaluation prices the same ``(workflow, network)`` pair
millions of times -- per candidate move of a local search, per genome of
the genetic algorithm, per leaf of branch-and-bound, per sample of the
32 000-draw quality protocol, per tenant of the fleet. Before this
module, each layer re-derived its own view of that pair: the cost model
kept name-keyed dicts, the incremental move evaluator built private
``Tproc``/delay tables, the router grew per-pair affine caches and the
fleet cached yet another copy per tenant.

:class:`CompiledInstance` compiles a ``(Workflow, ServerNetwork, cost
parameters)`` triple into integer-indexed arrays -- operation/server
index maps, the topological order, message endpoint index pairs with
their probability weights, XOR join weights, the per-``(op, server)``
``Tproc`` table, per-``(server, server)`` affine route-delay
coefficients and the capacity-proportional ideal-load vector -- and
every consumer borrows the same artifact:

* :class:`~repro.core.cost.CostModel` is a thin façade whose
  ``evaluate``/``objective``/``loads``/``response_times`` run an
  array-index forward pass over the compiled form;
* :class:`~repro.core.incremental.MoveEvaluator` keeps only its running
  state and dirty-region logic;
* :class:`~repro.simulation.engine.SimulationEngine` reads processing
  durations and message delays from the same tables;
* :class:`~repro.service.state.FleetState` holds one artifact per
  tenant.

The artifact is built from two halves, because in the paper's cost
model ``Tproc`` depends on the operation and the server while ``Tcomm``
depends only on the network:

* the **workflow half**, :class:`CompiledWorkflow` -- index maps, order,
  probabilities, cycles, join codes, message endpoints, XOR weights and
  the dirty-region and scope memos -- compiled once per workflow and
  probability setting and never changed;
* the **topology half** -- server index, capacities, the connectivity
  check and the route-delay table -- where the route part is the
  router's own index-keyed table (:meth:`Router.route_table
  <repro.network.routing.Router.route_table>`), borrowed by every
  instance on that router and rewritten in place when links change
  (:meth:`Router.invalidate <repro.network.routing.Router.invalidate>`).

Only ``Tproc``, the ideal-load vector and the transition tables are
per instance. :meth:`CompiledInstance.rebind` moves a compiled workflow
onto a changed server set without recompiling it -- what the fleet does
on every server failure, join or capacity change.

Every array entry is computed from exactly the operands (in exactly the
order) the pre-compilation object path used, so compiled evaluation is
bit-identical to the historical name-dict path -- the parity property
tests pin this at 1e-9 and seeded searches return byte-identical
deployments.
"""

from __future__ import annotations

import math
from typing import Mapping, Sequence

import networkx as nx

from repro.core.migration import PENALTY_MODES, TransitionObjective
from repro.core.probability import execution_probabilities
from repro.core.validation import check_well_formed
from repro.core.workflow import NodeKind, Workflow
from repro.exceptions import DeploymentError, UnknownServerError
from repro.network.routing import Router
from repro.network.topology import ServerNetwork
from repro.numeric import ordered_sum

__all__ = [
    "CompiledInstance",
    "CompiledWorkflow",
    "PENALTY_MODES",
    "ordered_sum",
    "penalty_statistic",
    "JOIN_MAX",
    "JOIN_MIN",
    "JOIN_XOR",
]

#: Join-semantics codes of the forward pass, one per operation:
#: plain nodes and ``AND`` joins wait for every arrival (max).
JOIN_MAX = 0
#: ``OR`` joins complete with the first arrival (min).
JOIN_MIN = 1
#: ``XOR`` joins take the probability-weighted average of arrivals.
JOIN_XOR = 2


def penalty_statistic(values: Sequence[float], mode: str) -> float:
    """The fairness statistic over per-server load *values*.

    The single implementation behind ``CostModel.time_penalty``, the
    move evaluator's penalty refresh and the fleet's snapshot and
    rebalance penalty -- see :data:`PENALTY_MODES` for the supported
    *mode* strings (an unknown mode falls through to ``"std"``, which
    matches the historical behaviour of every former copy).
    """
    if not values:
        return 0.0
    # every accumulation is an inline left fold (see ordered_sum): the
    # batch kernel's penalty_rows adds in this order, and this runs once
    # per priced move, so the deviations are folded as they are made
    count = len(values)
    total = 0.0
    for value in values:
        total += value
    mean = total / count
    if mode == "mad" or mode == "sum_abs":
        spread = 0.0
        for value in values:
            spread += abs(value - mean)
        return spread / count if mode == "mad" else spread
    if mode == "max":
        return max([abs(value - mean) for value in values])
    # std
    squares = 0.0
    for value in values:
        deviation = abs(value - mean)
        squares += deviation * deviation
    return math.sqrt(squares / count)


class CompiledWorkflow:
    """The workflow half of a compiled instance, shared across rebinds.

    Everything a compiled instance derives from the workflow alone:
    index maps, the topological order, probabilities, cycles, join
    codes, message endpoints and XOR weights, plus the memoised dirty
    regions and decision scopes. It depends on no server, so one
    compilation serves the workflow on every network it is bound to
    (see :meth:`CompiledInstance.rebind`). Every public attribute is
    also an attribute of the same name on each :class:`CompiledInstance`
    built from it.

    Parameters
    ----------
    workflow:
        The workflow to compile; it must be a DAG.
    use_probabilities:
        Weight costs by execution probabilities; ``None`` auto-enables
        this exactly when the workflow contains an ``XOR`` split.
    """

    def __init__(self, workflow: Workflow, use_probabilities: bool | None):
        if not workflow.is_dag():
            raise DeploymentError(
                f"workflow {workflow.name!r} contains a cycle; the cost "
                f"model requires a DAG"
            )
        self.workflow = workflow
        self.has_xor = any(op.kind is NodeKind.XOR_SPLIT for op in workflow)
        self.use_probabilities = self.probability_setting(use_probabilities)
        if self.use_probabilities:
            workflow.validate_xor_probabilities()
            prob_by_name = execution_probabilities(workflow)
        else:
            prob_by_name = {name: 1.0 for name in workflow.operation_names}

        self.op_names: tuple[str, ...] = workflow.operation_names
        op_index = self.op_index = {
            name: i for i, name in enumerate(self.op_names)
        }
        self.num_ops = len(self.op_names)
        self.order: tuple[int, ...] = tuple(
            op_index[name] for name in workflow.topological_order()
        )
        self.exits: tuple[int, ...] = tuple(
            op_index[name] for name in workflow.exits
        )
        self.node_prob: tuple[float, ...] = tuple(
            prob_by_name[name] for name in self.op_names
        )
        operations = workflow.operations
        self.cycles: tuple[float, ...] = tuple(op.cycles for op in operations)
        self.wcycles: tuple[float, ...] = tuple(
            op.cycles * prob_by_name[op.name] for op in operations
        )
        self.total_weighted_cycles: float = ordered_sum(self.wcycles)
        self.kinds: tuple[NodeKind, ...] = tuple(op.kind for op in operations)
        self.join_code: tuple[int, ...] = tuple(
            JOIN_XOR
            if kind is NodeKind.XOR_JOIN
            else (JOIN_MIN if kind is NodeKind.OR_JOIN else JOIN_MAX)
            for kind in self.kinds
        )

        # ---- message endpoint arrays ------------------------------------
        self.incoming: tuple[tuple[tuple[int, float, float], ...], ...] = (
            tuple(
                tuple(
                    (
                        op_index[m.source],
                        m.size_bits,
                        prob_by_name[m.source] * m.probability,
                    )
                    for m in workflow.incoming(name)
                )
                for name in self.op_names
            )
        )
        self.outgoing: tuple[tuple[tuple[int, float, float], ...], ...] = (
            tuple(
                tuple(
                    (
                        op_index[m.target],
                        m.size_bits,
                        prob_by_name[m.source] * m.probability,
                    )
                    for m in workflow.outgoing(name)
                )
                for name in self.op_names
            )
        )
        self.messages: tuple[tuple[int, int, float, float], ...] = tuple(
            (
                op_index[m.source],
                op_index[m.target],
                m.size_bits,
                prob_by_name[m.source] * m.probability,
            )
            for m in workflow.messages
        )
        # static XOR join weights (and their sums) in arrival order
        self.xor_weights: tuple[tuple[float, ...], ...] = tuple(
            tuple(w for _, _, w in entries) for entries in self.incoming
        )
        self.xor_weight_total: tuple[float, ...] = tuple(
            ordered_sum(weights) for weights in self.xor_weights
        )

        # ---- lazily-filled memos ----------------------------------------
        self._graph = workflow.graph
        topo_pos = [0] * self.num_ops
        for pos, op in enumerate(self.order):
            topo_pos[op] = pos
        self._topo_pos: list[int] = topo_pos
        self._dirty: dict[int, tuple[int, ...]] = {}
        self._scopes: dict[int, tuple[int, ...]] | None = None

    def probability_setting(self, use_probabilities: bool | None) -> bool:
        """What a requested *use_probabilities* resolves to here."""
        return self.has_xor if use_probabilities is None else use_probabilities

    def dirty_order(self, op: int) -> tuple[int, ...]:
        """See :meth:`CompiledInstance.dirty_order`."""
        cached = self._dirty.get(op)
        if cached is None:
            name = self.op_names[op]
            region = nx.descendants(self._graph, name) | {name}
            cached = tuple(
                sorted(
                    (self.op_index[n] for n in region),
                    key=self._topo_pos.__getitem__,
                )
            )
            self._dirty[op] = cached
        return cached

    def decision_scopes(self) -> Mapping[int, tuple[int, ...]]:
        """See :meth:`CompiledInstance.decision_scopes`."""
        if self._scopes is None:
            graph = self._graph
            report = check_well_formed(self.workflow)
            scopes: dict[int, tuple[int, ...]] = {}
            for split, join in report.matches.items():
                members = (
                    nx.descendants(graph, split) & nx.ancestors(graph, join)
                ) | {split, join}
                scopes[self.op_index[split]] = tuple(
                    sorted(
                        (self.op_index[n] for n in members),
                        key=self._topo_pos.__getitem__,
                    )
                )
            self._scopes = scopes
        return self._scopes


def _checked(objective: TransitionObjective) -> TransitionObjective:
    """*objective*, after validating its penalty mode and weights."""
    if objective.penalty_mode not in PENALTY_MODES:
        raise DeploymentError(
            f"unknown penalty mode {objective.penalty_mode!r}; expected "
            f"one of {PENALTY_MODES}"
        )
    if objective.execution_weight < 0 or objective.penalty_weight < 0:
        raise DeploymentError("objective weights must be >= 0")
    return objective


def _shared_router(network: ServerNetwork, router: Router | None) -> Router:
    """*router* (a fresh one when omitted), over *network*'s servers."""
    router = router or Router(network)
    if router.server_names != network.server_names:
        raise DeploymentError(
            f"the router's network {router.network.name!r} does not have "
            f"the servers of {network.name!r}"
        )
    return router


class CompiledInstance:
    """An integer-indexed compilation of one problem instance.

    Compile once, evaluate everywhere: all problem data needed to price
    a deployment lives in flat tuples indexed by small integers, and the
    only per-evaluation input is a server vector ``servers[op_index] ->
    server_index``. The instance is made of a workflow half
    (:class:`CompiledWorkflow`, :attr:`compiled_workflow`) and a
    topology half whose route table (:attr:`routes`) is shared by
    every instance on the same router. Neither changes value after
    construction (the route table and the memos fill lazily), with one
    sanctioned exception: when *link parameters* change at runtime,
    :meth:`Router.invalidate <repro.network.routing.Router.invalidate>`
    rewrites the shared route table in place and
    :meth:`refresh_routes` (or :meth:`invalidate_routes`, which does
    both) refreshes this instance's migration rows. A changed server
    set needs a new router and :meth:`rebind`, a changed capacity
    :meth:`rebind` on the same router; a changed workflow needs a
    recompile.

    Parameters
    ----------
    workflow, network:
        The problem instance. The workflow must be a DAG; the network
        must be connected.
    execution_weight, penalty_weight:
        Coefficients of the scalar objective (both >= 0).
    penalty_mode:
        Fairness statistic; one of :data:`PENALTY_MODES`.
    use_probabilities:
        Weight costs by execution probabilities (section 3.4). ``None``
        (default) auto-enables this exactly when the workflow contains
        an ``XOR`` split.
    router:
        Optional pre-built :class:`~repro.network.routing.Router` over
        the same servers, whose shared route table this instance
        borrows; built fresh when omitted.
    objective:
        Optional :class:`~repro.core.migration.TransitionObjective`. When
        given it is the single source of truth for every objective
        parameter (the individual keyword arguments are ignored); when
        omitted one is assembled from them, which reproduces the
        historical two-term objective exactly. A transition-aware
        specification additionally compiles the baseline-assignment
        vector and the per-``(op, server)`` migration-cost table.

    Attributes
    ----------
    compiled_workflow:
        The :class:`CompiledWorkflow` the workflow arrays below belong
        to (shared with every instance rebound from this one).
    op_names, op_index:
        Operation names in insertion order and the name -> index map.
    server_names, server_index:
        Server names in network order and the name -> index map.
    order:
        Topological order of the workflow as operation indices.
    exits:
        Indices of exit operations.
    node_prob, cycles, wcycles:
        Per-operation execution probability, raw cycles and
        probability-weighted cycles.
    tproc:
        ``tproc[op][server] = cycles[op] / power[server]`` in seconds.
    power, ideal_cycles, total_power_hz, total_weighted_cycles:
        Per-server capacity, the capacity-proportional cycle budget
        ``Ideal_Cycles(s)`` and the fleet-wide totals they derive from.
    incoming, outgoing:
        Per-operation message endpoints as ``(peer_index, size_bits,
        weight)`` triples in the workflow's adjacency order, where
        *weight* is the unconditional send probability.
    messages:
        All messages in insertion order as ``(source_index,
        target_index, size_bits, weight)``.
    join_code, xor_weights, xor_weight_total:
        Join semantics code (:data:`JOIN_MAX`/:data:`JOIN_MIN`/
        :data:`JOIN_XOR`) plus the static XOR join weights.
    routes:
        The router's shared, lazily-filled per-``(server, server)``
        affine route-delay table (:meth:`Router.route_table
        <repro.network.routing.Router.route_table>`):
        ``(propagation_s, transfer_s_per_bit)``, ``None`` when not yet
        resolved, ``()`` for the rare genuinely size-dependent pairs
        (answered by the router per size). Read through :meth:`delay`
        unless you replicate its fallback.
    objective, transition_aware, migration_weight:
        The resolved :class:`~repro.core.migration.TransitionObjective`
        plus its unpacked gate and coefficient.
    baseline_servers, migration_table:
        When transition-aware: the baseline placement as a server-index
        vector and ``migration_table[op][server]`` -- the cost of
        *op* running on *server* relative to its baseline (0.0 on the
        baseline server). ``None`` otherwise.
    """

    def __init__(
        self,
        workflow: Workflow,
        network: ServerNetwork,
        execution_weight: float = 0.5,
        penalty_weight: float = 0.5,
        penalty_mode: str = "mad",
        use_probabilities: bool | None = None,
        router: Router | None = None,
        objective: TransitionObjective | None = None,
    ):
        if objective is None:
            objective = TransitionObjective(
                execution_weight=execution_weight,
                penalty_weight=penalty_weight,
                penalty_mode=penalty_mode,
                use_probabilities=use_probabilities,
            )
        objective = _checked(objective)
        router = _shared_router(network, router)
        self._bind(
            CompiledWorkflow(workflow, objective.use_probabilities),
            network,
            router,
            objective,
        )

    def rebind(
        self,
        network: ServerNetwork,
        router: Router | None = None,
        objective: TransitionObjective | None = None,
    ) -> "CompiledInstance":
        """This workflow compiled onto *network*, without recompiling it.

        The new instance borrows this one's :class:`CompiledWorkflow`
        and *router*'s shared route table, and derives only the
        per-instance ``Tproc``, ideal loads and (when transition-aware)
        transition tables -- equal, field for field, to
        ``CompiledInstance(self.workflow, network, router=router,
        objective=objective)``. *objective* defaults to this instance's;
        one that resolves a different probability setting compiles the
        workflow again, since the probabilities weight every array.
        """
        objective = self.objective if objective is None else _checked(objective)
        router = _shared_router(network, router)
        shape = self.compiled_workflow
        requested = objective.use_probabilities
        if shape.probability_setting(requested) != shape.use_probabilities:
            shape = CompiledWorkflow(self.workflow, requested)
        instance = CompiledInstance.__new__(CompiledInstance)
        instance._bind(shape, network, router, objective)
        return instance

    def _bind(
        self,
        shape: CompiledWorkflow,
        network: ServerNetwork,
        router: Router,
        objective: TransitionObjective,
    ) -> None:
        """Attach a workflow half to a topology: the one build path."""
        self.compiled_workflow = shape
        for name, value in vars(shape).items():
            if not name.startswith("_"):  # the public workflow arrays
                setattr(self, name, value)
        self.network = network
        self.objective = objective
        self.execution_weight = objective.execution_weight
        self.penalty_weight = objective.penalty_weight
        self.penalty_mode = objective.penalty_mode
        self.migration_weight = objective.migration_weight
        self.transition_aware = objective.transition_aware

        # ---- topology half: the shared routes, then capacities ---------
        self.router = router
        self.routes = router.route_table()
        self.server_names: tuple[str, ...] = router.server_names
        self.server_index: dict[str, int] = router.server_index
        self.num_servers = len(self.server_names)
        self.power: tuple[float, ...] = tuple(
            network.server(name).power_hz for name in self.server_names
        )
        self.total_power_hz: float = network.total_power_hz
        # Tproc(op, s) = C(op) / P(s), the exact division the name-dict
        # path performed per query
        power = self.power
        self.tproc: tuple[tuple[float, ...], ...] = tuple(
            [tuple([cycles / p for p in power]) for cycles in shape.cycles]
        )
        self.ideal_cycles: tuple[float, ...] = tuple(
            shape.total_weighted_cycles * p / self.total_power_hz
            for p in self.power
        )

        # ---- transition baseline + migration-cost table ------------------
        if self.transition_aware:
            baseline = objective.baseline.as_dict()
            missing = [
                name for name in self.op_names if name not in baseline
            ]
            if missing:
                raise DeploymentError(
                    f"transition baseline is missing operations "
                    f"{missing!r} of workflow {self.workflow.name!r}"
                )
            self.baseline_servers: tuple[int, ...] | None = tuple(
                self.server_index_of(baseline[name])
                for name in self.op_names
            )
            self.migration_table: tuple[tuple[float, ...], ...] | None = (
                self._compile_migration_table()
            )
        else:
            self.baseline_servers = None
            self.migration_table = None
        self._batch = None

    # ------------------------------------------------------------------
    # index resolution
    # ------------------------------------------------------------------
    def server_index_of(self, server_name: str) -> int:
        """The index of *server_name*, raising ``UnknownServerError``."""
        try:
            return self.server_index[server_name]
        except KeyError:
            raise UnknownServerError(
                f"no server {server_name!r} in network {self.network.name!r}"
            ) from None

    def server_vector(self, deployment) -> list[int]:
        """``servers[op_index] -> server_index`` for a complete mapping.

        The one per-evaluation translation from the name-keyed
        :class:`~repro.core.mapping.Deployment` into the compiled index
        space. The deployment must already be validated (the cost-model
        entry points do so exactly once).
        """
        server_index = self.server_index
        server_of = deployment.server_of
        return [server_index[server_of(name)] for name in self.op_names]

    def _compile_migration_table(self) -> tuple[tuple[float, ...], ...]:
        """``migration_table[op][server]`` priced over the current links."""
        model = self.objective.migration
        # state size scales with *raw* cycles: the operation carries
        # its full state regardless of execution probability
        table = []
        for op in range(self.num_ops):
            source = self.baseline_servers[op]
            bits = model.state_bits(self.cycles[op])
            table.append(
                tuple(
                    0.0
                    if target == source
                    else model.move_cost(self.delay(source, target, bits))
                    for target in range(self.num_servers)
                )
            )
        return tuple(table)

    # ------------------------------------------------------------------
    # route delays
    # ------------------------------------------------------------------
    def compile_all_pairs(self) -> None:
        """Eagerly materialise the whole route-delay table.

        Every server's rows through
        :meth:`~repro.network.routing.Router.compile_all_pairs` (at most
        two single-source Dijkstra passes per server), which fills the
        shared route table as it classifies, followed by this instance's
        migration rows -- bit-identical entries to what lazy resolution
        would produce, without counting cache traffic.
        """
        self.router.compile_all_pairs()
        self.refresh_routes()

    def invalidate_routes(self) -> None:
        """Rebuild the route-delay state after link parameters changed.

        The explicit invalidation/rebuild hook of the scenario layer:
        when a link fails, degrades or is upgraded, the compiled
        artifact stays valid *except* for everything derived from route
        delays. The router recomputes immediately and rewrites its
        shared route table and dense delay matrices in place (see
        :meth:`repro.network.routing.Router.invalidate`); then this
        instance's migration rows follow (:meth:`refresh_routes`).

        The contract is *link changes only*: the server set, their
        powers and the workflow must be unchanged (the first needs a
        new router and :meth:`rebind`, the second :meth:`rebind`, the
        last a recompile). Other
        instances on the same router see the refreshed routes at once
        but must still :meth:`refresh_routes` their migration rows.
        Callers holding ``MoveEvaluator`` running state over this
        instance must rebuild (or ``resync``) them; the fleet's
        rebalancer constructs them per round, so it gets fresh delays
        automatically.
        """
        if self.network.server_names != self.server_names:
            raise DeploymentError(
                f"invalidate_routes on {self.workflow.name!r} x "
                f"{self.network.name!r}: the server set changed; "
                f"recompile or rebind the instance instead"
            )
        self.refresh_routes(self.router.invalidate())

    def refresh_routes(
        self, affected: set[tuple[int, int]] | None = None
    ) -> None:
        """Refresh this instance's route-derived state after a link change.

        The shared route table and dense matrices were already rewritten
        by :meth:`Router.invalidate
        <repro.network.routing.Router.invalidate>`; what is left per
        instance is the transition-aware migration table (and the batch
        evaluator's copy of it), so this is a no-op for instances that
        are not transition-aware. *affected* is the set of canonical
        server index pairs the invalidation returned -- the pairs whose
        slot changed plus every pair whose per-size prices may have --
        or ``None`` for "every pair changed".
        """
        if not self.transition_aware or (affected is not None and not affected):
            return
        if affected is None:
            self.migration_table = self._compile_migration_table()
        else:
            self._refresh_migration_rows(affected)
        if self._batch is not None:
            self._batch.refresh_routes()

    def _refresh_migration_rows(self, pairs: set[tuple[int, int]]) -> None:
        """Re-price only the migration moves that cross a changed route."""
        model = self.objective.migration
        touched: dict[int, set[int]] = {}
        for i, j in pairs:
            touched.setdefault(i, set()).add(j)
            touched.setdefault(j, set()).add(i)
        table = [list(row) for row in self.migration_table]
        for op in range(self.num_ops):
            source = self.baseline_servers[op]
            targets = touched.get(source)
            if not targets:
                continue
            bits = model.state_bits(self.cycles[op])
            for target in targets:
                table[op][target] = model.move_cost(
                    self.delay(source, target, bits)
                )
        self.migration_table = tuple(tuple(row) for row in table)

    def priced_sizes(self) -> set[float]:
        """Every message size this instance prices a route at.

        Its messages' sizes and, when transition-aware, its operations'
        migration state sizes: the per-size state a shared router must
        keep (:meth:`Router.retain
        <repro.network.routing.Router.retain>`) for a link change to
        refresh what this instance derived from it.
        """
        sizes = {size_bits for _src, _dst, size_bits, _weight in self.messages}
        if self.transition_aware:
            state_bits = self.objective.migration.state_bits
            sizes.update(state_bits(cycles) for cycles in self.cycles)
        return sizes

    def route_coefficients(
        self, source: int, target: int
    ) -> tuple[float, float] | tuple[()]:
        """The resolved affine route coefficients of one server pair.

        ``(propagation_s, transfer_s_per_bit)`` for affine pairs, the
        empty tuple for the rare genuinely size-dependent pairs (price
        those through the router per size). Resolves the lazy route
        table slot on first access -- this is the read-through API for
        consumers that materialise the table instead of calling
        :meth:`delay` per message.
        """
        coeff = self.routes[source][target]
        if coeff is None:
            coeff = self.router.resolve(source, target)
        return coeff

    def delay(self, source: int, target: int, size_bits: float) -> float:
        """``Tcomm`` of one message between two server indices.

        Size-independent pairs (the overwhelmingly common case) are an
        affine evaluation of the cached ``(propagation, transfer)``
        coefficients -- exactly the value
        :meth:`~repro.network.routing.Router.transmission_time` returns,
        from the same operands. Genuinely size-dependent pairs fall back
        to the router per query.
        """
        coeff = self.routes[source][target]
        if coeff is None:
            coeff = self.router.resolve(source, target)
        if coeff:
            return coeff[0] + size_bits * coeff[1]
        return self.router.transmission_time(
            self.server_names[source], self.server_names[target], size_bits
        )

    # ------------------------------------------------------------------
    # the forward pass and its aggregates
    # ------------------------------------------------------------------
    def forward_pass(self, servers: Sequence[int]) -> list[float]:
        """(Expected) finish time of every operation, indexed by op.

        The cost model's expected-time forward pass over the DAG in
        topological order: ``ready(n)`` aggregates arrivals
        ``finish(pred) + Tcomm`` (max for ``AND``/plain, min for ``OR``
        joins, probability-weighted average for ``XOR`` joins) and
        ``finish(n) = ready(n) + Tproc(n)``.
        """
        finish = [0.0] * self.num_ops
        incoming_all = self.incoming
        tproc = self.tproc
        join = self.join_code
        weights_all = self.xor_weights
        weight_total = self.xor_weight_total
        routes = self.routes
        delay = self.delay
        for op in self.order:
            incoming = incoming_all[op]
            if not incoming:
                ready = 0.0
            else:
                dst = servers[op]
                arrivals = []
                append = arrivals.append
                for src, size_bits, _w in incoming:
                    coeff = routes[servers[src]][dst]
                    if coeff:
                        d = coeff[0] + size_bits * coeff[1]
                    else:
                        d = delay(servers[src], dst, size_bits)
                    append(finish[src] + d)
                code = join[op]
                if code == JOIN_XOR:
                    total = weight_total[op]
                    if total <= 0:
                        ready = max(arrivals)
                    else:
                        ready = (
                            ordered_sum(
                                w * a
                                for w, a in zip(weights_all[op], arrivals)
                            )
                            / total
                        )
                elif code == JOIN_MIN:
                    ready = min(arrivals)
                else:
                    ready = max(arrivals)
            finish[op] = ready + tproc[op][servers[op]]
        return finish

    def execution_from(self, finish: Sequence[float]) -> float:
        """``Texecute``: the latest finish among exit operations."""
        return max(finish[op] for op in self.exits)

    def load_values(self, servers: Sequence[int]) -> list[float]:
        """``Load(s)`` per server index, in seconds.

        Weighted-cycle sums accumulate in operation insertion order --
        the same floating-point order as the historical name-dict loop.
        """
        totals = [0.0] * self.num_servers
        wcycles = self.wcycles
        for op in range(self.num_ops):
            totals[servers[op]] += wcycles[op]
        power = self.power
        return [totals[j] / power[j] for j in range(self.num_servers)]

    def penalty(self, load_values: Sequence[float]) -> float:
        """The compiled-in fairness statistic over *load_values*."""
        return penalty_statistic(load_values, self.penalty_mode)

    def migration_cost(self, servers: Sequence[int]) -> float:
        """Summed per-op migration cost of *servers* vs the baseline.

        Table lookups accumulate in operation insertion order (the same
        floating-point order as :meth:`load_values`). Exactly ``0.0``
        -- without touching any table -- when the instance is not
        transition-aware, so non-aware callers can pass the result to
        :meth:`objective_value` unconditionally.
        """
        if not self.transition_aware:
            return 0.0
        table = self.migration_table
        total = 0.0
        for op in range(self.num_ops):
            total += table[op][servers[op]]
        return total

    def objective_value(
        self, execution: float, penalty: float, migration: float = 0.0
    ) -> float:
        """The scalar objective from its components.

        The compiled form of
        :meth:`~repro.core.migration.TransitionObjective.value`: the
        migration term participates only when the instance is
        transition-aware, so the historical two-argument call sites are
        byte-identical to the pre-refactor scalar.
        """
        value = (
            self.execution_weight * execution + self.penalty_weight * penalty
        )
        if self.transition_aware:
            return value + self.migration_weight * migration
        return value

    def components(
        self, servers: Sequence[int]
    ) -> tuple[float, float, float]:
        """``(execution_time, time_penalty, objective)`` of one vector."""
        penalty = self.penalty(self.load_values(servers))
        execution = self.execution_from(self.forward_pass(servers))
        migration = self.migration_cost(servers)
        return (
            execution,
            penalty,
            self.objective_value(execution, penalty, migration),
        )

    def communication_time(self, servers: Sequence[int]) -> float:
        """Probability-weighted ``Tcomm`` summed over all messages."""
        total = 0.0
        delay = self.delay
        for src, dst, size_bits, weight in self.messages:
            total += weight * delay(servers[src], servers[dst], size_bits)
        return total

    def processing_time(self, servers: Sequence[int]) -> float:
        """Probability-weighted ``Tproc`` summed over all operations."""
        total = 0.0
        node_prob = self.node_prob
        tproc = self.tproc
        for op in range(self.num_ops):
            total += node_prob[op] * tproc[op][servers[op]]
        return total

    # ------------------------------------------------------------------
    # batched evaluation
    # ------------------------------------------------------------------
    def batch_evaluator(self):
        """The shared :class:`~repro.core.batch.BatchEvaluator`.

        Built lazily on first access and memoised on the artifact, so
        every batch consumer of this instance -- GA generations, sampler
        blocks, neighbourhood sweeps, fleet candidate sets -- shares one
        evaluator; its dense delay matrices are shared further, by every
        instance on the same router. The kernel module is imported here,
        on first use, so compiling an instance does not load NumPy.
        """
        evaluator = self._batch
        if evaluator is None:
            from repro.core.batch import BatchEvaluator

            evaluator = BatchEvaluator(self)
            self._batch = evaluator
        return evaluator

    # ------------------------------------------------------------------
    # graph regions
    # ------------------------------------------------------------------
    def dirty_order(self, op: int) -> tuple[int, ...]:
        """The operation plus its descendants, in topological order.

        Moving an operation changes its own ``Tproc`` and the ``Tcomm``
        of every incident message; the only ``finish()`` values that can
        change are the operation's and its descendants'. Memoised on the
        workflow half, so every move evaluator over this instance (or
        any instance rebound from it) shares one region table.
        """
        return self.compiled_workflow.dirty_order(op)

    def decision_scopes(self) -> Mapping[int, tuple[int, ...]]:
        """Per-split region membership: split index -> member indices.

        For every well-formed decision region the scope is the split,
        its matching join and everything between them, in topological
        order -- the node set whose costs an ``XOR`` probability
        re-estimate or a region-local rebalance must touch. Computed
        lazily from the well-formedness checker's split/join matching;
        workflows that are not well-formed yield the regions that did
        match (possibly none).
        """
        return self.compiled_workflow.decision_scopes()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"CompiledInstance({self.workflow.name!r} x "
            f"{self.network.name!r}, ops={self.num_ops}, "
            f"servers={self.num_servers})"
        )
