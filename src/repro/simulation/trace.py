"""Execution traces and aggregate results of simulated runs."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping

from repro.numeric import ordered_sum

__all__ = ["OperationRecord", "MessageRecord", "SimulationResult"]


@dataclass(frozen=True)
class MessageRecord:
    """One message transmission inside a simulated run.

    Attributes
    ----------
    source, target:
        The communicating operations.
    departure_time, arrival_time:
        When the message left the sender and reached the receiver. On an
        exclusive bus the difference includes queueing for the medium.
    size_bits:
        ``MsgSize`` of the message.
    crossed_network:
        False for co-located (zero-cost) deliveries.
    """

    source: str
    target: str
    departure_time: float
    arrival_time: float
    size_bits: float
    crossed_network: bool

    @property
    def latency(self) -> float:
        """Total delivery time including any bus queueing."""
        return self.arrival_time - self.departure_time


@dataclass(frozen=True)
class OperationRecord:
    """One operation execution inside a simulated run."""

    operation: str
    server: str
    ready_time: float
    start_time: float
    finish_time: float

    @property
    def queueing_delay(self) -> float:
        """Time spent waiting for the server after becoming ready."""
        return self.start_time - self.ready_time


@dataclass(frozen=True)
class SimulationResult:
    """Everything measured in one simulated workflow execution.

    Attributes
    ----------
    makespan:
        Completion time of the run: the latest finish among executed
        operations that correspond to workflow exits (or, for runs where
        an ``OR`` join short-circuited, the join's completion).
    records:
        Per-executed-operation timing records, in finish order.
    busy_time:
        Seconds each server spent processing (its measured ``Load(s)``).
    bits_sent:
        Total message bits that crossed the network (co-located messages
        excluded), a direct measure of the communication the deployment
        failed to avoid.
    messages_sent:
        Count of inter-server messages.
    executed_operations:
        Names of operations that actually ran (XOR skips branches).
    message_records:
        Per-delivered-message timing records, in departure order.
    """

    makespan: float
    records: tuple[OperationRecord, ...]
    busy_time: Mapping[str, float] = field(default_factory=dict)
    bits_sent: float = 0.0
    messages_sent: int = 0
    executed_operations: frozenset[str] = frozenset()
    message_records: tuple[MessageRecord, ...] = ()

    def total_queueing_delay(self) -> float:
        """Sum of queueing delays -- 0 with infinite server concurrency."""
        return ordered_sum(record.queueing_delay for record in self.records)
