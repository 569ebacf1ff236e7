"""The discrete-event executor of a deployed workflow.

One :class:`SimulationEngine` is bound to a (workflow, network,
deployment) triple and can be run many times with different seeds. A run:

1. entry operations become ready at ``t = 0``;
2. a ready operation queues on its server; the server starts it when a
   slot is free (``server_concurrency`` slots per server; ``None`` models
   the paper's contention-free assumption);
3. a finishing operation dispatches messages to its successors -- all of
   them for operational/``AND``/``OR`` nodes, exactly one sampled branch
   for an ``XOR`` split -- each arriving after the router's transmission
   time (zero when co-located);
4. a node becomes ready when its expected inputs arrived: every incoming
   message for ``AND``-like nodes, the first arrival for an ``OR`` join
   (later arrivals are ignored), the single taken branch for ``XOR``
   joins;
5. the run's *makespan* is the latest finish among executed exit
   operations.

Determinism: for a fixed RNG the full event order is deterministic
(stable event queue, FIFO server queues).
"""

from __future__ import annotations

import random

from repro.core.compiled import CompiledInstance
from repro.core.mapping import Deployment
from repro.core.rng import coerce_rng
from repro.core.workflow import NodeKind, Workflow
from repro.exceptions import SimulationError
from repro.network.routing import Router
from repro.network.topology import ServerNetwork
from repro.numeric import ordered_sum
from repro.simulation.events import EventKind, EventQueue
from repro.simulation.trace import (
    MessageRecord,
    OperationRecord,
    SimulationResult,
)

__all__ = ["SimulationEngine"]


class SimulationEngine:
    """Run a deployed workflow as a discrete-event simulation.

    Parameters
    ----------
    workflow, network, deployment:
        The deployed instance; the deployment must be complete.
    server_concurrency:
        Operations a server can process simultaneously. ``None``
        (default) means unbounded -- the contention-free assumption of
        the paper's analytic model; ``1`` models single-core servers.
    exclusive_bus:
        When True, cross-server transfers serialise on one shared
        medium: a message must wait for the bus to free before its
        transmission time starts. The paper's ``Tcomm`` ignores this
        (every transfer proceeds independently); the flag quantifies
        what that assumption hides on congested buses.
    router:
        Optional shared :class:`~repro.network.routing.Router`. Ignored
        when *compiled* is given (the artifact's router is used).
    compiled:
        Optional shared :class:`~repro.core.compiled.CompiledInstance`
        of the same ``(workflow, network)`` pair; processing durations
        and message delays are then read from its precompiled ``Tproc``
        and route-delay tables instead of being recomputed per event.
        Built here when omitted.
    """

    def __init__(
        self,
        workflow: Workflow,
        network: ServerNetwork,
        deployment: Deployment,
        server_concurrency: int | None = None,
        exclusive_bus: bool = False,
        router: Router | None = None,
        compiled: CompiledInstance | None = None,
    ):
        if server_concurrency is not None and server_concurrency < 1:
            raise SimulationError("server_concurrency must be >= 1 or None")
        deployment.validate(workflow, network)
        network.require_connected()
        if not workflow.is_dag():
            raise SimulationError("cannot simulate a cyclic workflow")
        workflow.validate_xor_probabilities()
        if compiled is not None and (
            compiled.workflow is not workflow or compiled.network is not network
        ):
            raise SimulationError(
                "compiled artifact does not match the engine's workflow "
                "and network"
            )
        self.workflow = workflow
        self.network = network
        self.deployment = deployment
        self.server_concurrency = server_concurrency
        self.exclusive_bus = exclusive_bus
        if compiled is None:
            compiled = CompiledInstance(
                workflow, network, router=router or Router(network)
            )
        self.compiled = compiled
        self.router = compiled.router

    # ------------------------------------------------------------------
    def run(self, rng: random.Random | int | None = None) -> SimulationResult:
        """Execute once; *rng* drives XOR branch sampling.

        ``rng=None`` explicitly means the library-wide deterministic
        default, ``Random(0)`` -- see :func:`repro.core.rng.coerce_rng`.
        """
        rng = coerce_rng(rng)

        workflow = self.workflow
        queue = EventQueue()
        arrivals: dict[str, int] = {}
        ready_time: dict[str, float] = {}
        started: set[str] = set()
        fired_or_joins: set[str] = set()
        records: list[OperationRecord] = []
        busy_time: dict[str, float] = {
            name: 0.0 for name in self.network.server_names
        }
        server_running: dict[str, int] = {
            name: 0 for name in self.network.server_names
        }
        server_queue: dict[str, list[str]] = {
            name: [] for name in self.network.server_names
        }
        bits_sent = 0.0
        messages_sent = 0
        message_records: list[MessageRecord] = []

        def expected_inputs(name: str) -> int:
            operation = workflow.operation(name)
            if operation.kind in (NodeKind.XOR_JOIN, NodeKind.OR_JOIN):
                return 1
            return len(workflow.predecessors(name))

        def try_start(name: str, now: float) -> None:
            server = self.deployment.server_of(name)
            capacity = self.server_concurrency
            if capacity is None or server_running[server] < capacity:
                begin(name, server, now)
            else:
                server_queue[server].append(name)

        compiled = self.compiled
        op_index = compiled.op_index
        server_index = compiled.server_index

        def begin(name: str, server: str, now: float) -> None:
            started.add(name)
            server_running[server] += 1
            duration = compiled.tproc[op_index[name]][server_index[server]]
            busy_time[server] += duration
            queue.schedule(
                now + duration,
                EventKind.OPERATION_FINISH,
                {"operation": name, "server": server, "start": now},
            )

        def on_ready(name: str, now: float) -> None:
            if name in started:
                return
            ready_time[name] = now
            try_start(name, now)

        bus_free_at = 0.0

        def dispatch_messages(name: str, now: float) -> None:
            nonlocal bits_sent, messages_sent, bus_free_at
            operation = workflow.operation(name)
            outgoing = workflow.outgoing(name)
            if not outgoing:
                return
            if operation.kind is NodeKind.XOR_SPLIT:
                chosen = _sample_branch(outgoing, rng)
                selected = [chosen]
            else:
                selected = list(outgoing)
            source_server = self.deployment.server_of(name)
            for message in selected:
                target_server = self.deployment.server_of(message.target)
                delay = compiled.delay(
                    server_index[source_server],
                    server_index[target_server],
                    message.size_bits,
                )
                arrival = now + delay
                crossed = source_server != target_server
                if crossed:
                    bits_sent += message.size_bits
                    messages_sent += 1
                    if self.exclusive_bus:
                        # wait for the shared medium, then hold it for
                        # the whole transfer (dispatches arrive in event
                        # order, so greedy booking is FIFO-correct)
                        start = max(now, bus_free_at)
                        arrival = start + delay
                        bus_free_at = arrival
                message_records.append(
                    MessageRecord(
                        source=message.source,
                        target=message.target,
                        departure_time=now,
                        arrival_time=arrival,
                        size_bits=message.size_bits,
                        crossed_network=crossed,
                    )
                )
                queue.schedule(
                    arrival,
                    EventKind.MESSAGE_ARRIVAL,
                    {"target": message.target},
                )

        def on_arrival(name: str, now: float) -> None:
            operation = workflow.operation(name)
            if operation.kind is NodeKind.OR_JOIN:
                if name in fired_or_joins:
                    return  # later branches lose the race, run ignored
                fired_or_joins.add(name)
                on_ready(name, now)
                return
            arrivals[name] = arrivals.get(name, 0) + 1
            if arrivals[name] >= expected_inputs(name):
                on_ready(name, now)

        for entry in workflow.entries:
            on_ready(entry, 0.0)

        while queue:
            event = queue.pop()
            if event.kind is EventKind.OPERATION_FINISH:
                name = event.payload["operation"]
                server = event.payload["server"]
                records.append(
                    OperationRecord(
                        operation=name,
                        server=server,
                        ready_time=ready_time[name],
                        start_time=event.payload["start"],
                        finish_time=event.time,
                    )
                )
                server_running[server] -= 1
                pending = server_queue[server]
                if pending and (
                    self.server_concurrency is None
                    or server_running[server] < self.server_concurrency
                ):
                    begin(pending.pop(0), server, event.time)
                dispatch_messages(name, event.time)
            else:  # MESSAGE_ARRIVAL
                on_arrival(event.payload["target"], event.time)

        executed = frozenset(record.operation for record in records)
        exit_finishes = [
            record.finish_time
            for record in records
            if record.operation in workflow.exits
        ]
        if exit_finishes:
            makespan = max(exit_finishes)
        elif records:  # degenerate: no exit executed (should not happen)
            makespan = max(record.finish_time for record in records)
        else:
            raise SimulationError("simulation executed no operations")

        return SimulationResult(
            makespan=makespan,
            records=tuple(records),
            busy_time=busy_time,
            bits_sent=bits_sent,
            messages_sent=messages_sent,
            executed_operations=executed,
            message_records=tuple(message_records),
        )

    # ------------------------------------------------------------------
    def run_many(
        self, runs: int, rng: random.Random | int | None = None
    ) -> list[SimulationResult]:
        """Execute *runs* times with one shared RNG stream.

        ``rng=None`` explicitly means the library-wide deterministic
        default, ``Random(0)`` -- see :func:`repro.core.rng.coerce_rng`.
        """
        if runs < 1:
            raise SimulationError("runs must be >= 1")
        rng = coerce_rng(rng)
        return [self.run(rng) for _ in range(runs)]

    def expected_makespan(
        self, runs: int = 100, rng: random.Random | int | None = None
    ) -> float:
        """Mean makespan over *runs* executions (Monte-Carlo ``Texecute``)."""
        results = self.run_many(runs, rng)
        return ordered_sum(result.makespan for result in results) / len(results)


def _sample_branch(outgoing, rng: random.Random):
    """Pick one XOR branch proportionally to its edge probability."""
    total = ordered_sum(message.probability for message in outgoing)
    if total <= 0:
        raise SimulationError(
            f"XOR split {outgoing[0].source!r} has no positive branch "
            f"probability"
        )
    point = rng.random() * total
    cumulative = 0.0
    for message in outgoing:
        cumulative += message.probability
        if point <= cumulative:
            return message
    return outgoing[-1]  # floating-point edge: fall back to the last branch
