"""Structured, append-only decision log and fleet metrics.

Every event the controller consumes produces exactly one
:class:`LogRecord`: what happened, to whom, what the controller decided,
how long the decision took, and a flat bag of decision-specific details
(projected loads, churn, objective gains, ...). The log is append-only
and renders to a canonical text form, so two replays of the same seeded
scenario can be compared byte for byte -- the determinism contract the
test suite enforces.

:class:`FleetMetrics` is the aggregate snapshot benchmarks and the CLI
print: admission counts, per-event placement latency, shared-cache hit
rates, rebalance churn, and the load-balance index over time.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Mapping

from repro.exceptions import ServiceError
from repro.experiments.reporting import TextTable, format_seconds

__all__ = ["LogRecord", "FleetLog", "FleetMetrics", "format_detail"]


def format_detail(value: object) -> str:
    """Canonical string form of a :attr:`LogRecord.details` value.

    The determinism contract compares rendered logs byte for byte, so
    every detail value must format identically everywhere -- across
    call sites *and* across Python minor versions. Floats are pinned to
    six decimal places (never ``str(float)``, whose shortest-repr
    output is an implementation detail); everything else goes through
    ``str``. All controller handlers must build their detail bags with
    this helper instead of ad-hoc f-strings.
    """
    if isinstance(value, float):
        return f"{value:.6f}"
    return str(value)


@dataclass(frozen=True)
class LogRecord:
    """One controller decision.

    Attributes
    ----------
    seq:
        0-based position in the log.
    event:
        The event kind (``deploy``, ``tick``, ...).
    subject:
        Tenant or server the event concerned (``fleet`` for ticks).
    action:
        What the controller did: ``admitted``, ``rejected``,
        ``removed``, ``recovered``, ``joined``, ``steady``,
        ``rebalanced``.
    latency_s:
        Handling time as measured by the controller's clock (a
        deterministic step clock under scenario replay).
    details:
        Sorted ``(key, value)`` string pairs of decision specifics.
    """

    seq: int
    event: str
    subject: str
    action: str
    latency_s: float
    details: tuple[tuple[str, str], ...] = ()

    def detail(self, key: str) -> str:
        """The detail value for *key* or raise."""
        for name, value in self.details:
            if name == key:
                return value
        raise ServiceError(
            f"record #{self.seq} ({self.event}/{self.action}) has no "
            f"detail {key!r}"
        )

    @property
    def details_dict(self) -> dict[str, str]:
        """The details as a plain dict."""
        return dict(self.details)

    def to_line(self) -> str:
        """The canonical one-line rendering used for byte comparison."""
        payload = " ".join(f"{k}={v}" for k, v in self.details)
        return (
            f"#{self.seq:04d} {self.event} {self.subject} {self.action} "
            f"latency={self.latency_s:.6f}s"
            + (f" {payload}" if payload else "")
        )


class FleetLog:
    """Append-only sequence of :class:`LogRecord`."""

    def __init__(self) -> None:
        self._records: list[LogRecord] = []

    def append(
        self,
        event: str,
        subject: str,
        action: str,
        latency_s: float,
        details: Mapping[str, str] | None = None,
    ) -> LogRecord:
        """Create, store and return the next record.

        Details are sorted by key so the rendering never depends on the
        insertion order of the handler that produced them.
        """
        record = LogRecord(
            seq=len(self._records),
            event=event,
            subject=subject,
            action=action,
            latency_s=latency_s,
            details=tuple(sorted((details or {}).items())),
        )
        self._records.append(record)
        return record

    def __len__(self) -> int:
        return len(self._records)

    def __iter__(self) -> Iterator[LogRecord]:
        return iter(self._records)

    def __getitem__(self, index: int) -> LogRecord:
        return self._records[index]

    @property
    def records(self) -> tuple[LogRecord, ...]:
        """All records, oldest first."""
        return tuple(self._records)

    def filter(
        self, event: str | None = None, action: str | None = None
    ) -> tuple[LogRecord, ...]:
        """Records matching the given event kind and/or action."""
        return tuple(
            record
            for record in self._records
            if (event is None or record.event == event)
            and (action is None or record.action == action)
        )

    def to_text(self) -> str:
        """Canonical multi-line rendering (the determinism artifact)."""
        return "\n".join(record.to_line() for record in self._records) + (
            "\n" if self._records else ""
        )

    def to_table(self) -> TextTable:
        """A readable table of every decision."""
        table = TextTable(
            ["#", "event", "subject", "action", "latency", "details"],
            title="fleet decision log",
        )
        for record in self._records:
            table.add_row(
                [
                    record.seq,
                    record.event,
                    record.subject,
                    record.action,
                    format_seconds(record.latency_s),
                    " ".join(f"{k}={v}" for k, v in record.details),
                ]
            )
        return table


@dataclass(frozen=True)
class FleetMetrics:
    """Aggregate fleet health over one controller run.

    Attributes
    ----------
    events:
        Total events processed.
    events_by_kind:
        ``(kind, count)`` pairs sorted by kind.
    admitted, rejected:
        Admission-control outcomes for deploy requests.
    undeployed:
        Tenants removed on request.
    failures_recovered, servers_joined:
        Topology events successfully handled.
    orphans_rehomed:
        Operations re-homed after server failures.
    rebalances, rebalance_moves:
        Drift-triggered rebalances and their total churn (moves applied,
        including opportunistic spreading onto joined servers).
    mean_latency_s, max_latency_s:
        Per-event handling latency (deterministic under replay clocks).
    placement_evaluations:
        Fleet-objective evaluations spent on placement and rebalancing
        -- the deterministic work counter.
    router_hits, router_misses:
        Shared-router cache outcomes across every tenant's cost model.
    cost_model_hits, cost_model_misses:
        Per-tenant cost-model cache outcomes.
    balance_timeline:
        Jain load-balance index after every event, oldest first.
    final_objective, final_execution_time, final_time_penalty:
        The closing :class:`~repro.service.state.FleetSnapshot` scalars.
    final_balance_index, tenants_hosted:
        Closing balance index and tenant count.
    migration_paid:
        Cumulative migration cost (seconds) of every rebalance /
        spreading move applied so far, priced by the controller's
        :class:`~repro.core.migration.MigrationCostModel`. Stays 0.0
        when the controller has no migration model configured.
    route_dijkstra_runs:
        Single-source Dijkstra passes executed by the shared router --
        lazy builds, batched compiles and event-driven recomputes alike
        (the unit of routing work ``benchmarks/bench_routing.py``
        compares against a from-scratch rebuild).
    route_pairs_invalidated, route_pairs_recomputed:
        Route pairs link events reported as changed / reclassified
        (:attr:`Router.pairs_invalidated
        <repro.network.routing.Router.pairs_invalidated>` and
        :attr:`~repro.network.routing.Router.pairs_recomputed`). Stay 0
        when no link event occurred.
    """

    events: int
    events_by_kind: tuple[tuple[str, int], ...]
    admitted: int
    rejected: int
    undeployed: int
    failures_recovered: int
    servers_joined: int
    orphans_rehomed: int
    rebalances: int
    rebalance_moves: int
    mean_latency_s: float
    max_latency_s: float
    placement_evaluations: int
    router_hits: int
    router_misses: int
    cost_model_hits: int
    cost_model_misses: int
    balance_timeline: tuple[float, ...]
    final_objective: float
    final_execution_time: float
    final_time_penalty: float
    final_balance_index: float
    tenants_hosted: int
    migration_paid: float = 0.0
    route_dijkstra_runs: int = 0
    route_pairs_invalidated: int = 0
    route_pairs_recomputed: int = 0

    @property
    def router_hit_rate(self) -> float:
        """Shared-router cache hit fraction (0 with no queries)."""
        total = self.router_hits + self.router_misses
        return self.router_hits / total if total else 0.0

    @property
    def cost_model_hit_rate(self) -> float:
        """Cost-model cache hit fraction (0 with no queries)."""
        total = self.cost_model_hits + self.cost_model_misses
        return self.cost_model_hits / total if total else 0.0

    def to_table(self) -> TextTable:
        """The metrics table the ``repro fleet`` command prints."""
        table = TextTable(["metric", "value"], title="fleet metrics")
        table.add_row(["events processed", self.events])
        for kind, count in self.events_by_kind:
            table.add_row([f"  {kind}", count])
        table.add_row(["tenants admitted", self.admitted])
        table.add_row(["tenants rejected", self.rejected])
        table.add_row(["tenants undeployed", self.undeployed])
        table.add_row(["failures recovered", self.failures_recovered])
        table.add_row(["servers joined", self.servers_joined])
        table.add_row(["orphans re-homed", self.orphans_rehomed])
        table.add_row(["rebalances triggered", self.rebalances])
        table.add_row(["rebalance churn (moves)", self.rebalance_moves])
        table.add_row(["mean event latency", format_seconds(self.mean_latency_s)])
        table.add_row(["max event latency", format_seconds(self.max_latency_s)])
        table.add_row(["placement evaluations", self.placement_evaluations])
        table.add_row(
            [
                "router cache hit rate",
                f"{self.router_hit_rate * 100:.1f}% "
                f"({self.router_hits}/{self.router_hits + self.router_misses})",
            ]
        )
        table.add_row(
            [
                "cost-model cache hit rate",
                f"{self.cost_model_hit_rate * 100:.1f}% "
                f"({self.cost_model_hits}"
                f"/{self.cost_model_hits + self.cost_model_misses})",
            ]
        )
        table.add_row(
            ["final objective", format_seconds(self.final_objective)]
        )
        table.add_row(
            ["final Texecute", format_seconds(self.final_execution_time)]
        )
        table.add_row(
            ["final TimePenalty", format_seconds(self.final_time_penalty)]
        )
        table.add_row(
            ["final balance index", f"{self.final_balance_index:.4f}"]
        )
        table.add_row(["tenants hosted", self.tenants_hosted])
        if self.migration_paid:
            # only rendered when a migration model priced actual moves,
            # so migration-free runs keep their byte-identical table
            table.add_row(
                ["migration paid", format_seconds(self.migration_paid)]
            )
        if self.route_pairs_invalidated or self.route_pairs_recomputed:
            # only rendered when a link event actually invalidated
            # routes, keeping event-free tables byte-identical
            table.add_row(
                ["route pairs invalidated", self.route_pairs_invalidated]
            )
            table.add_row(
                ["route pairs recomputed", self.route_pairs_recomputed]
            )
            table.add_row(["route Dijkstra runs", self.route_dijkstra_runs])
        return table

    def to_text(self) -> str:
        """Canonical rendering: the table plus the balance timeline."""
        timeline = ",".join(f"{v:.6f}" for v in self.balance_timeline)
        return f"{self.to_table()}\nbalance_timeline={timeline}\n"
