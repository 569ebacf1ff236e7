"""The cost model of Table 1.

The paper evaluates a deployment along two antagonistic dimensions and, by
default, sums them with equal weights:

``Texecute``
    Time to complete the workflow. Per-operation processing time is
    ``Tproc(op) = C(op) / P(Server(op))``; per-message communication time
    ``Tcomm`` sums ``MsgSize/Line_Speed`` plus propagation over the links
    of the route between the two hosting servers (zero when co-located).
    For a *line* workflow this is simply the sum of all processing and
    communication times. For random graphs the evaluation is an
    expected-time forward pass over the DAG honouring the decision-node
    semantics: ``AND`` joins wait for every branch (max), ``OR`` joins
    complete with the first branch (min), ``XOR`` joins take the
    probability-weighted average of their branches -- the amortised cost
    over many executions that section 3.4 calls for.

``TimePenalty``
    A translation of load-distribution fairness into time units:
    the deviation of each server's load ``Load(s)`` (the time the server
    spends processing its assigned operations) from the average server
    load. The paper's formula is typeset ambiguously, so the deviation
    statistic is configurable (:attr:`CostModel.penalty_mode`); the
    default is the mean absolute deviation, which is in seconds and
    stable across server counts. In a perfectly fair deployment every
    server spends the same time and the penalty is 0.

The model also exposes ``Ideal_Cycles(s) = Sum_Cycles * P(s)/Sum_Capacity``,
the capacity-proportional cycle budget that every greedy algorithm in the
paper starts from.

Since the compiled-IR refactor :class:`CostModel` is a thin façade over
:class:`~repro.core.compiled.CompiledInstance`: construction compiles the
``(workflow, network, parameters)`` triple once into integer-indexed
arrays, and ``evaluate``/``objective``/``loads``/``response_times`` run an
array-index forward pass over the compiled form -- bit-identical to the
historical name-dict path, but sharing one precomputation with the move
evaluators, the simulation engine and the fleet.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping

from repro.core.compiled import (
    PENALTY_MODES,
    CompiledInstance,
    penalty_statistic,
)
from repro.core.mapping import Deployment
from repro.core.migration import TransitionObjective
from repro.core.workflow import Message, Workflow
from repro.network.routing import Router
from repro.network.topology import ServerNetwork

__all__ = ["CostModel", "CostBreakdown", "PENALTY_MODES"]


@dataclass(frozen=True)
class CostBreakdown:
    """Everything the cost model knows about one deployment.

    Attributes
    ----------
    execution_time:
        ``Texecute`` in seconds (expected value for graphs with XOR).
    time_penalty:
        Fairness penalty in seconds (see :data:`PENALTY_MODES`).
    objective:
        ``execution_weight * execution_time + penalty_weight * time_penalty``.
    loads:
        ``Load(s)`` per server, in seconds (probability-weighted for
        graph workflows).
    communication_time:
        Total ``Tcomm`` over all messages (probability-weighted), an
        auxiliary diagnostic -- for non-linear workflows it is *not* a
        term of ``execution_time`` because parallel branches overlap.
    processing_time:
        Total ``Tproc`` over all operations (probability-weighted).
    response_times:
        Per-operation (expected, branch-conditional) completion times --
        the section 6 extension; empty when not computed.
    migration_cost:
        Summed per-op migration cost vs the transition baseline
        (unweighted seconds); 0.0 when the model is not
        transition-aware. When non-zero, ``objective`` includes it as
        ``migration_weight * migration_cost``.
    """

    execution_time: float
    time_penalty: float
    objective: float
    loads: Mapping[str, float] = field(default_factory=dict)
    communication_time: float = 0.0
    processing_time: float = 0.0
    response_times: Mapping[str, float] = field(default_factory=dict)
    migration_cost: float = 0.0

    def dominates(self, other: "CostBreakdown") -> bool:
        """Pareto dominance: at least as good on both axes, better on one."""
        not_worse = (
            self.execution_time <= other.execution_time
            and self.time_penalty <= other.time_penalty
        )
        strictly_better = (
            self.execution_time < other.execution_time
            or self.time_penalty < other.time_penalty
        )
        return not_worse and strictly_better


class CostModel:
    """Evaluate deployments of one workflow over one network.

    Parameters
    ----------
    workflow, network:
        The problem instance. The workflow must be a DAG; the network must
        be connected.
    execution_weight, penalty_weight:
        Coefficients of the scalar objective. The paper's default is an
        equally weighted sum.
    penalty_mode:
        Fairness statistic; one of :data:`PENALTY_MODES`.
    use_probabilities:
        Weight costs by execution probabilities (section 3.4). ``None``
        (default) auto-enables this exactly when the workflow contains an
        ``XOR`` split.
    router:
        Optional pre-built :class:`~repro.network.routing.Router` to share
        its cache across cost models.
    objective:
        Optional :class:`~repro.core.migration.TransitionObjective`; when
        given it supplies every objective parameter (the individual
        keyword arguments are ignored) and, if transition-aware, makes
        every evaluation include the migration term.
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
        self._init_from_compiled(
            CompiledInstance(
                workflow,
                network,
                execution_weight=execution_weight,
                penalty_weight=penalty_weight,
                penalty_mode=penalty_mode,
                use_probabilities=use_probabilities,
                router=router,
                objective=objective,
            )
        )

    @classmethod
    def from_compiled(cls, compiled: CompiledInstance) -> "CostModel":
        """A façade over an existing compiled artifact, no recompilation.

        The returned model shares *compiled* (and its router and route
        tables) with every other consumer of the artifact -- this is how
        the fleet, the move evaluators and the simulation engine avoid
        rebuilding per-layer caches.
        """
        model = cls.__new__(cls)
        model._init_from_compiled(compiled)
        return model

    def _init_from_compiled(self, compiled: CompiledInstance) -> None:
        self.compiled = compiled
        self.workflow = compiled.workflow
        self.network = compiled.network
        self.execution_weight = compiled.execution_weight
        self.penalty_weight = compiled.penalty_weight
        self.penalty_mode = compiled.penalty_mode
        self.router = compiled.router
        self.use_probabilities = compiled.use_probabilities

    # ------------------------------------------------------------------
    # Table 1 primitives
    # ------------------------------------------------------------------
    def node_probability(self, operation_name: str) -> float:
        """Execution probability of an operation (1 without XOR)."""
        compiled = self.compiled
        return compiled.node_prob[compiled.op_index[operation_name]]

    def message_probability(self, message: Message) -> float:
        """Unconditional probability that *message* is sent."""
        return self.node_probability(message.source) * message.probability

    def tproc(self, operation_name: str, deployment: Deployment) -> float:
        """``Tproc(op) = C(op) / P(Server(op))`` in seconds (unweighted)."""
        compiled = self.compiled
        operation = self.workflow.operation(operation_name)
        server = deployment.server_of(operation_name)
        return compiled.tproc[compiled.op_index[operation.name]][
            compiled.server_index_of(server)
        ]

    def tcomm(self, message: Message, deployment: Deployment) -> float:
        """``Tcomm`` of one message in seconds (unweighted).

        Zero when both endpoints share a server.
        """
        source = deployment.server_of(message.source)
        target = deployment.server_of(message.target)
        return self.router.transmission_time(source, target, message.size_bits)

    def ideal_cycles(self, server_name: str) -> float:
        """``Ideal_Cycles(s) = Sum_Cycles * P(s) / Sum_Capacity``.

        The capacity-proportional cycle budget used by every greedy
        algorithm. Probability-weighted cycles are used for graph
        workflows so that rarely executed branches count less.
        """
        compiled = self.compiled
        return compiled.ideal_cycles[compiled.server_index_of(server_name)]

    def total_weighted_cycles(self) -> float:
        """``Sum_Cycles``, probability-weighted when applicable."""
        return self.compiled.total_weighted_cycles

    # ------------------------------------------------------------------
    # loads and fairness
    # ------------------------------------------------------------------
    def loads(self, deployment: Deployment) -> dict[str, float]:
        """``Load(s)`` for every server of the network (0 when unused)."""
        deployment.validate(self.workflow, self.network)
        return self._loads_unchecked(deployment)

    def _loads_unchecked(self, deployment: Deployment) -> dict[str, float]:
        """:meth:`loads` without re-validating an already-checked mapping."""
        compiled = self.compiled
        values = compiled.load_values(compiled.server_vector(deployment))
        return dict(zip(compiled.server_names, values))

    def time_penalty(self, deployment: Deployment) -> float:
        """The fairness penalty in seconds (see :data:`PENALTY_MODES`)."""
        deployment.validate(self.workflow, self.network)
        compiled = self.compiled
        return compiled.penalty(
            compiled.load_values(compiled.server_vector(deployment))
        )

    def _penalty_from_loads(self, loads: Mapping[str, float]) -> float:
        """The fairness statistic over an existing per-server load map.

        Kept as the named hook the branch-and-bound lower bound uses to
        price partial load vectors; delegates to
        :func:`repro.core.compiled.penalty_statistic`.
        """
        return penalty_statistic(list(loads.values()), self.penalty_mode)

    # ------------------------------------------------------------------
    # execution time
    # ------------------------------------------------------------------
    def execution_time(self, deployment: Deployment) -> float:
        """``Texecute``: (expected) completion time of the workflow.

        A forward pass in topological order. ``ready(n)`` aggregates the
        arrival times ``finish(pred) + Tcomm(pred -> n)`` of the incoming
        messages: max for ``AND`` joins and plain nodes, min for ``OR``
        joins, probability-weighted average for ``XOR`` joins (expected
        time over branch choices). ``finish(n) = ready(n) + Tproc(n)``,
        and the result is the latest finish among exit operations.

        For a line workflow this reduces exactly to the paper's
        ``sum(Tproc) + sum(Tcomm)``.
        """
        deployment.validate(self.workflow, self.network)
        compiled = self.compiled
        return compiled.execution_from(
            compiled.forward_pass(compiled.server_vector(deployment))
        )

    def response_times(self, deployment: Deployment) -> dict[str, float]:
        """(Expected) completion time of every individual operation.

        The per-operation view of the :meth:`execution_time` forward
        pass -- section 6 names "the response time of individual
        operations" as a cost-model extension, and this is it: the time
        at which each operation's result is available, conditional on
        its region executing (XOR branches report their conditional
        finish time, which is what a per-operation SLA cares about).
        """
        deployment.validate(self.workflow, self.network)
        return self._response_times_unchecked(deployment)

    def _response_times_unchecked(
        self, deployment: Deployment
    ) -> dict[str, float]:
        """:meth:`response_times` without re-validating the mapping."""
        compiled = self.compiled
        finish = compiled.forward_pass(compiled.server_vector(deployment))
        order = compiled.order
        op_names = compiled.op_names
        return {op_names[op]: finish[op] for op in order}

    # ------------------------------------------------------------------
    # aggregate diagnostics and the objective
    # ------------------------------------------------------------------
    def total_communication_time(self, deployment: Deployment) -> float:
        """Probability-weighted sum of ``Tcomm`` over all messages."""
        compiled = self.compiled
        return compiled.communication_time(compiled.server_vector(deployment))

    def objective(self, deployment: Deployment) -> float:
        """The scalar objective: weighted sum of the cost metrics.

        Includes the migration term when the model is transition-aware
        (``migration_cost`` is exactly 0.0 and ignored otherwise).
        Validates the deployment exactly once, not once per metric.
        """
        deployment.validate(self.workflow, self.network)
        compiled = self.compiled
        servers = compiled.server_vector(deployment)
        execution = compiled.execution_from(compiled.forward_pass(servers))
        penalty = compiled.penalty(compiled.load_values(servers))
        migration = compiled.migration_cost(servers)
        return compiled.objective_value(execution, penalty, migration)

    def evaluate(self, deployment: Deployment) -> CostBreakdown:
        """Full :class:`CostBreakdown` for *deployment*.

        Validates the deployment exactly once, not once per component.
        """
        deployment.validate(self.workflow, self.network)
        compiled = self.compiled
        servers = compiled.server_vector(deployment)
        load_values = compiled.load_values(servers)
        finish = compiled.forward_pass(servers)
        execution = compiled.execution_from(finish)
        penalty = compiled.penalty(load_values)
        migration = compiled.migration_cost(servers)
        op_names = compiled.op_names
        return CostBreakdown(
            execution_time=execution,
            time_penalty=penalty,
            objective=compiled.objective_value(execution, penalty, migration),
            loads=dict(zip(compiled.server_names, load_values)),
            communication_time=compiled.communication_time(servers),
            processing_time=compiled.processing_time(servers),
            response_times={
                op_names[op]: finish[op] for op in compiled.order
            },
            migration_cost=migration,
        )
