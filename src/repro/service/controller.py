"""The fleet controller: a deterministic event loop over a live fleet.

This is the subsystem the paper's motivation (section 2.1) asks for but
its one-shot algorithms stop short of: a provider that *keeps* hosting
workflows as tenants arrive and leave, servers fail and join, and load
drifts away from fairness. The controller consumes the typed events of
:mod:`repro.service.events` and drives the per-event primitives the
experiment layer already provides:

* ``DeployRequest`` -- admission control against remaining fleet
  capacity, then placement with any registered algorithm (sharing the
  fleet's router/cost caches);
* ``UndeployRequest`` -- release a tenant;
* ``ServerFailed`` -- orphan re-homing with Fair Load's worst-fit fill
  (``ServerBudgets.place``) over fleet-wide budgets;
* ``ServerJoined`` -- opportunistic spreading of hosted load onto the
  new capacity, bounded like a rebalance;
* ``LinkFailure`` / ``LinkDegrade`` -- patch the live topology (drop or
  re-parameterise a link), refresh only the route-delay state (one
  shared :meth:`repro.network.routing.Router.invalidate`, which
  refreshes the route table every tenant borrows, then each tenant's
  :meth:`repro.core.compiled.CompiledInstance.refresh_routes`), and run
  the tick's drift check immediately -- re-routed traffic may have
  pushed the fleet past the rebalance threshold;
* ``RegionOutage`` -- fail every server of one geo region
  (``{region}/{i}`` naming, see :mod:`repro.scenarios.geo`), then
  re-home all orphans in a single fleet-wide pass;
* ``Tick`` -- fairness-drift check; when the time-penalty share of the
  fleet objective exceeds the configured threshold, a bounded greedy
  rebalance runs and its churn vs. cost-gain is logged, mirroring
  :func:`repro.experiments.incremental.adaptation_report`.

Every decision appends one record to the :class:`~repro.service.log.FleetLog`.
With a deterministic clock (see :class:`~repro.core.clock.StepClock`)
an entire run is a pure function of the initial fleet and the event
list -- replaying a seeded scenario twice produces byte-identical logs
and metrics.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass
from typing import Callable, Iterable, Sequence

import numpy as np

from repro.algorithms.base import get_algorithm
from repro.algorithms.graph_adapters import ServerBudgets
from repro.core.compiled import CompiledInstance, penalty_statistic
from repro.core.cost import PENALTY_MODES
from repro.core.migration import MigrationCostModel
from repro.core.rng import coerce_rng
from repro.exceptions import ServiceError
from repro.network.topology import ServerNetwork
from repro.numeric import ordered_sum
from repro.scenarios.geo import region_servers
from repro.service.events import (
    CapacityDrift,
    DeployRequest,
    FleetEvent,
    LinkDegrade,
    LinkFailure,
    RegionOutage,
    ServerFailed,
    ServerJoined,
    Tick,
    UndeployRequest,
    WorkloadDrift,
)
from repro.service.log import FleetLog, FleetMetrics, LogRecord, format_detail
from repro.service.state import FleetSnapshot, FleetState

__all__ = ["FleetConfig", "FleetController"]


@dataclass(frozen=True)
class FleetConfig:
    """Controller policy knobs.

    Attributes
    ----------
    algorithm:
        Default registered algorithm for tenant placement (deploy
        requests may override per tenant).
    admission_load_limit_s:
        Admission-control capacity: the maximum projected *mean*
        per-server load in seconds the fleet accepts: ``None`` (admission
        control off, everything is admitted) or a finite value >= 0.
    drift_threshold:
        A tick triggers a rebalance when the time-penalty share of the
        fleet objective (``penalty_weight * TimePenalty / objective``)
        exceeds this fraction.
    max_moves_per_rebalance:
        Churn bound: at most this many operation moves per rebalance or
        per join-spreading pass.
    execution_weight, penalty_weight, penalty_mode:
        Fleet-objective knobs, as in :class:`~repro.core.cost.CostModel`.
    seed:
        Seed of the controller's private RNG (handed to placement
        algorithms that need random initial mappings).
    migration:
        Optional :class:`~repro.core.migration.MigrationCostModel`
        pricing what an applied move *costs* (checkpoint transfer over
        the current links plus fixed downtime). When set, every
        rebalance / spreading move is priced and accumulated in
        :attr:`FleetController.migration_paid`, even at weight 0 --
        so a migration-blind controller can still be *billed* for its
        churn in benchmarks without changing a single decision.
    migration_weight:
        Weight of the migration cost in the hysteresis acceptance test:
        a candidate move is accepted only when
        ``objective_after + migration_weight * move_cost`` strictly
        undercuts the current objective. 0 (the default) keeps
        decisions byte-identical to a migration-blind controller; > 0
        requires :attr:`migration`.
    rebalance_cooldown_ticks:
        Per-tenant cooldown: after a tick rebalance moves one of a
        tenant's operations, that tenant's operations are not eligible
        rebalance candidates for this many subsequent ticks --
        dampening move-it-back oscillation under drift. 0 disables.
    """

    algorithm: str = "HeavyOps-LargeMsgs"
    admission_load_limit_s: float | None = None
    drift_threshold: float = 0.35
    max_moves_per_rebalance: int = 4
    execution_weight: float = 0.5
    penalty_weight: float = 0.5
    penalty_mode: str = "mad"
    seed: int = 0
    migration: MigrationCostModel | None = None
    migration_weight: float = 0.0
    rebalance_cooldown_ticks: int = 0

    def __post_init__(self) -> None:
        if self.penalty_mode not in PENALTY_MODES:
            raise ServiceError(
                f"unknown penalty mode {self.penalty_mode!r}; expected one "
                f"of {PENALTY_MODES}"
            )
        limit = self.admission_load_limit_s
        if limit is not None and not (
            isinstance(limit, (int, float))
            and math.isfinite(limit)
            and limit >= 0.0
        ):
            raise ServiceError(
                "admission_load_limit_s must be None or finite and >= 0"
            )
        if not 0.0 <= self.drift_threshold <= 1.0:
            raise ServiceError("drift_threshold must lie in [0, 1]")
        if self.max_moves_per_rebalance < 0:
            raise ServiceError("max_moves_per_rebalance must be >= 0")
        if not (
            math.isfinite(self.migration_weight)
            and self.migration_weight >= 0.0
        ):
            raise ServiceError("migration_weight must be finite and >= 0")
        if self.migration_weight > 0.0 and self.migration is None:
            raise ServiceError(
                "migration_weight > 0 needs a MigrationCostModel "
                "(set FleetConfig.migration)"
            )
        if self.rebalance_cooldown_ticks < 0:
            raise ServiceError("rebalance_cooldown_ticks must be >= 0")


class FleetController:
    """Event loop owning a :class:`~repro.service.state.FleetState`.

    Parameters
    ----------
    network:
        The initial fleet. Ownership passes to the controller's state.
    config:
        Policy knobs; defaults are reasonable for small fleets.
    clock:
        A zero-argument callable returning seconds. Defaults to
        :func:`time.perf_counter`; pass a
        :class:`~repro.core.clock.StepClock` for deterministic replays.
    """

    def __init__(
        self,
        network: ServerNetwork,
        config: FleetConfig | None = None,
        clock: Callable[[], float] | None = None,
    ):
        self.config = config or FleetConfig()
        # captured before any event mutates the network: a durable
        # restore replays the event history against this initial fleet
        from repro.io.json_codec import network_to_dict

        self._initial_network_doc = network_to_dict(network)
        self.state = FleetState(
            network,
            execution_weight=self.config.execution_weight,
            penalty_weight=self.config.penalty_weight,
            penalty_mode=self.config.penalty_mode,
        )
        self.log = FleetLog()
        #: Every event handled so far, in order -- the append-only
        #: event log that a durable restore replays.
        self.history: list[FleetEvent] = []
        self._clock = clock if clock is not None else time.perf_counter
        self._rng = coerce_rng(self.config.seed)
        #: Deterministic work counter: fleet-objective evaluations spent
        #: on rebalancing / spreading decisions.
        self.evaluations = 0
        self._balance_timeline: list[float] = []
        #: Cumulative migration cost (seconds) of every applied move,
        #: priced by :attr:`FleetConfig.migration`. Tracked whenever a
        #: migration model is configured -- weight 0 included -- so a
        #: migration-blind run can still be billed for its churn.
        self.migration_paid = 0.0
        # tenant -> remaining ticks it is excluded from rebalancing
        self._tenant_cooldowns: dict[str, int] = {}

    # ------------------------------------------------------------------
    # event loop
    # ------------------------------------------------------------------
    def handle(self, event: FleetEvent) -> LogRecord:
        """Process one event; append and return its log record."""
        self.history.append(event)
        start = self._clock()
        if isinstance(event, DeployRequest):
            subject, action, details = self._on_deploy(event)
        elif isinstance(event, UndeployRequest):
            subject, action, details = self._on_undeploy(event)
        elif isinstance(event, ServerFailed):
            subject, action, details = self._on_server_failed(event)
        elif isinstance(event, ServerJoined):
            subject, action, details = self._on_server_joined(event)
        elif isinstance(event, WorkloadDrift):
            subject, action, details = self._on_workload_drift(event)
        elif isinstance(event, CapacityDrift):
            subject, action, details = self._on_capacity_drift(event)
        elif isinstance(event, LinkFailure):
            subject, action, details = self._on_link_failure(event)
        elif isinstance(event, LinkDegrade):
            subject, action, details = self._on_link_degrade(event)
        elif isinstance(event, RegionOutage):
            subject, action, details = self._on_region_outage(event)
        elif isinstance(event, Tick):
            subject, action, details = self._on_tick(event)
        else:
            raise ServiceError(
                f"unknown fleet event type {type(event).__name__!r}"
            )
        snapshot = self.state.snapshot()
        details["objective"] = format_detail(snapshot.objective)
        details["balance"] = format_detail(snapshot.balance_index)
        latency = self._clock() - start
        self._balance_timeline.append(snapshot.balance_index)
        return self.log.append(event.kind, subject, action, latency, details)

    def run(self, events: Iterable[FleetEvent]) -> FleetLog:
        """Process *events* in order; return the accumulated log."""
        for event in events:
            self.handle(event)
        return self.log

    def snapshot(self) -> FleetSnapshot:
        """The current aggregate fleet snapshot."""
        return self.state.snapshot()

    # ------------------------------------------------------------------
    # durability
    # ------------------------------------------------------------------
    @property
    def initial_network_doc(self) -> dict:
        """The JSON document of the fleet as first constructed."""
        return self._initial_network_doc

    @property
    def clock(self) -> Callable[[], float]:
        """The controller's clock (checkpointing serialises StepClocks)."""
        return self._clock

    # ------------------------------------------------------------------
    # handlers
    # ------------------------------------------------------------------
    def _on_deploy(
        self, event: DeployRequest
    ) -> tuple[str, str, dict[str, str]]:
        state = self.state
        if event.tenant in state:
            return event.tenant, "rejected", {"reason": "duplicate-tenant"}
        cost_model = state.build_cost_model(event.workflow)
        extra = cost_model.total_weighted_cycles()
        projected = state.mean_load_s(extra_cycles=extra)
        limit = self.config.admission_load_limit_s
        if limit is not None and projected > limit:
            return (
                event.tenant,
                "rejected",
                {
                    "reason": "capacity",
                    "projected_load": format_detail(projected),
                    "limit": format_detail(limit),
                },
            )
        name = event.algorithm or self.config.algorithm
        algorithm = get_algorithm(name)()
        deployment = algorithm.deploy(
            event.workflow, state.network, cost_model=cost_model, rng=self._rng
        )
        state.add_tenant(
            event.tenant, event.workflow, deployment, cost_model=cost_model
        )
        return (
            event.tenant,
            "admitted",
            {
                "algorithm": name,
                "operations": format_detail(len(event.workflow)),
                "projected_load": format_detail(projected),
                "servers_used": format_detail(len(deployment.used_servers())),
            },
        )

    def _on_undeploy(
        self, event: UndeployRequest
    ) -> tuple[str, str, dict[str, str]]:
        if event.tenant not in self.state:
            return event.tenant, "rejected", {"reason": "unknown-tenant"}
        record = self.state.remove_tenant(event.tenant)
        self._tenant_cooldowns.pop(event.tenant, None)
        return (
            event.tenant,
            "removed",
            {"operations": format_detail(len(record.workflow))},
        )

    def _on_workload_drift(
        self, event: WorkloadDrift
    ) -> tuple[str, str, dict[str, str]]:
        state = self.state
        if event.tenant not in state:
            return event.tenant, "rejected", {"reason": "unknown-tenant"}
        hosted = state.tenant(event.tenant).workflow
        if sorted(event.workflow.operation_names) != sorted(
            hosted.operation_names
        ):
            return event.tenant, "rejected", {"reason": "operations-changed"}
        state.update_tenant_workflow(event.tenant, event.workflow)
        return (
            event.tenant,
            "drifted",
            {"operations": format_detail(len(event.workflow))},
        )

    def _on_capacity_drift(
        self, event: CapacityDrift
    ) -> tuple[str, str, dict[str, str]]:
        state = self.state
        if event.server not in state.network:
            return event.server, "rejected", {"reason": "unknown-server"}
        if not (math.isfinite(event.power_hz) and event.power_hz > 0):
            return event.server, "rejected", {"reason": "bad-power"}
        state.set_server_power(event.server, event.power_hz)
        return (
            event.server,
            "rescaled",
            {"power_hz": format_detail(event.power_hz)},
        )

    def _on_server_failed(
        self, event: ServerFailed
    ) -> tuple[str, str, dict[str, str]]:
        state = self.state
        if event.server not in state.network:
            return event.server, "rejected", {"reason": "unknown-server"}
        if len(state.network) <= 1:
            return event.server, "rejected", {"reason": "last-server"}
        try:
            orphans = state.fail_server(event.server)
        except ServiceError:
            # the survivors would split: keeping the server beats that
            return event.server, "rejected", {"reason": "would-partition"}
        rehomed = self._rehome_orphans(orphans)
        return (
            event.server,
            "recovered",
            {
                "orphans": format_detail(rehomed),
                "tenants_affected": format_detail(len(orphans)),
                "servers_left": format_detail(len(state.network)),
            },
        )

    def _on_server_joined(
        self, event: ServerJoined
    ) -> tuple[str, str, dict[str, str]]:
        state = self.state
        if event.server in state.network:
            return event.server, "rejected", {"reason": "duplicate-server"}
        state.join_server(
            event.server,
            event.power_hz,
            event.link_speed_bps,
            event.propagation_s,
        )
        moves, before, after, _ = self._greedy_moves(
            targets=(event.server,),
            candidates=self._all_operations,
            max_moves=self.config.max_moves_per_rebalance,
        )
        return (
            event.server,
            "joined",
            {
                "spread_moves": format_detail(len(moves)),
                "gain": format_detail(before - after),
                "servers": format_detail(len(state.network)),
            },
        )

    def _on_link_failure(
        self, event: LinkFailure
    ) -> tuple[str, str, dict[str, str]]:
        state = self.state
        subject = f"{event.a}-{event.b}"
        if event.a not in state.network or event.b not in state.network:
            return subject, "rejected", {"reason": "unknown-server"}
        if not state.network.has_link(event.a, event.b):
            return subject, "rejected", {"reason": "unknown-link"}
        try:
            state.drop_link(event.a, event.b)
        except ServiceError:
            # no redundant path: keeping the link beats partitioning
            return subject, "rejected", {"reason": "would-partition"}
        details = {"links": format_detail(len(state.network.links))}
        details.update(self._drive_rebalance())
        return subject, "rerouted", details

    def _on_link_degrade(
        self, event: LinkDegrade
    ) -> tuple[str, str, dict[str, str]]:
        state = self.state
        subject = f"{event.a}-{event.b}"
        if event.a not in state.network or event.b not in state.network:
            return subject, "rejected", {"reason": "unknown-server"}
        if not state.network.has_link(event.a, event.b):
            return subject, "rejected", {"reason": "unknown-link"}
        link = state.degrade_link(
            event.a,
            event.b,
            event.speed_factor,
            event.propagation_factor,
        )
        details = {
            "speed_bps": format_detail(link.speed_bps),
            "propagation_s": format_detail(link.propagation_s),
        }
        details.update(self._drive_rebalance())
        return subject, "degraded", details

    def _on_region_outage(
        self, event: RegionOutage
    ) -> tuple[str, str, dict[str, str]]:
        state = self.state
        members = region_servers(state.network, event.region)
        if not members:
            return event.region, "rejected", {"reason": "unknown-region"}
        if len(members) >= len(state.network):
            return event.region, "rejected", {"reason": "whole-fleet"}
        # fail every member first, re-home once: orphans must never be
        # parked on a server that dies later in the same outage
        try:
            merged = state.fail_server(*members)
        except ServiceError:
            return event.region, "rejected", {"reason": "would-partition"}
        rehomed = self._rehome_orphans(merged)
        return (
            event.region,
            "recovered",
            {
                "servers_lost": format_detail(len(members)),
                "orphans": format_detail(rehomed),
                "tenants_affected": format_detail(len(merged)),
                "servers_left": format_detail(len(state.network)),
            },
        )

    def _drive_rebalance(self, tick: bool = False) -> dict[str, str]:
        """Drift check + bounded rebalance; the event's log details.

        Rebalances when the time-penalty share of the objective exceeds
        :attr:`FleetConfig.drift_threshold`, and adds the ``churn``/
        ``objective_*``/``gain`` entries (plus ``migration``/
        ``net_gain`` when transition-aware) after ``drift``. A *tick*
        also counts every cooldown down; link failures and degrades run
        the same test at once -- re-routed traffic may have shifted the
        drift past the threshold -- and set cooldowns for moved tenants
        (hysteresis must keep damping oscillation) without decaying
        them, since those events are not ticks.
        """
        snapshot = self.state.snapshot()
        if snapshot.objective > 0:
            drift = (
                self.state.penalty_weight * snapshot.time_penalty
                / snapshot.objective
            )
        else:
            drift = 0.0
        details = {"drift": format_detail(drift)}
        if drift <= self.config.drift_threshold:
            if tick:
                self._decay_cooldowns()
            return details
        moves, before, after, migration_total = self._greedy_moves(
            targets=None,
            candidates=self._busiest_server_operations,
            max_moves=self.config.max_moves_per_rebalance,
        )
        # cooldown bookkeeping: candidates were filtered against the
        # *pre-decrement* counters, so a cooldown of N skips exactly N
        # ticks; tenants moved now start their cooldown afresh
        if tick:
            self._decay_cooldowns()
        if self.config.rebalance_cooldown_ticks > 0:
            for tenant, _operation, _source, _target in moves:
                self._tenant_cooldowns[tenant] = (
                    self.config.rebalance_cooldown_ticks
                )
        details.update(
            {
                "churn": format_detail(len(moves)),
                "objective_before": format_detail(before),
                "objective_after": format_detail(after),
                "gain": format_detail(before - after),
            }
        )
        if self._transition_aware:
            details["migration"] = format_detail(migration_total)
            details["net_gain"] = format_detail(
                before - after
                - self.config.migration_weight * migration_total
            )
        return details

    def _on_tick(self, event: Tick) -> tuple[str, str, dict[str, str]]:
        details = self._drive_rebalance(tick=True)
        action = "rebalanced" if "churn" in details else "steady"
        return "fleet", action, details

    @property
    def _transition_aware(self) -> bool:
        """True when migration cost changes rebalance decisions."""
        return (
            self.config.migration is not None
            and self.config.migration_weight > 0.0
        )

    def _decay_cooldowns(self) -> None:
        """One tick elapsed: count every tenant cooldown down by one."""
        for tenant in list(self._tenant_cooldowns):
            remaining = self._tenant_cooldowns[tenant] - 1
            if remaining <= 0:
                del self._tenant_cooldowns[tenant]
            else:
                self._tenant_cooldowns[tenant] = remaining

    # ------------------------------------------------------------------
    # placement / rebalancing machinery
    # ------------------------------------------------------------------
    def _rehome_orphans(self, orphans: dict[str, tuple[str, ...]]) -> int:
        """Worst-fit re-homing of failure orphans, fleet-wide.

        :meth:`~repro.algorithms.graph_adapters.ServerBudgets.place` over
        fleet-wide budgets (capacity-proportional shares minus *all*
        hosted load); the orphans of every affected tenant compete in
        one queue, heaviest weighted cycles first. Returns the number
        of operations re-homed.
        """
        state = self.state
        queue: list[tuple[float, str, str]] = []
        for tenant, operations in orphans.items():
            compiled = state.cost_model(tenant).compiled
            for operation in operations:
                weighted = compiled.wcycles[compiled.op_index[operation]]
                queue.append((weighted, tenant, operation))
        queue.sort(key=lambda item: (-item[0], item[1], item[2]))
        budgets = ServerBudgets(state.remaining_budgets().values())
        targets = budgets.place(weighted for weighted, _, _ in queue)
        server_names = state.network.server_names
        for (_, tenant, operation), target in zip(queue, targets):
            state.tenant(tenant).deployment.assign(operation, server_names[target])
        return len(queue)

    def _all_operations(
        self, loads: dict[str, float]
    ) -> list[tuple[str, str]]:
        """Every hosted (tenant, operation) pair, in deterministic order."""
        return [
            (tenant, operation)
            for tenant in self.state.tenants
            for operation in self.state.tenant(tenant).workflow.operation_names
        ]

    def _busiest_server_operations(
        self, loads: dict[str, float]
    ) -> list[tuple[str, str]]:
        """Operations hosted on the most-loaded server (rebalance source)."""
        if not loads:
            return []
        rank = {name: i for i, name in enumerate(self.state.network.server_names)}
        busiest = max(loads, key=lambda s: (loads[s], -rank[s]))
        return [
            (tenant, operation)
            for tenant in self.state.tenants
            if self._tenant_cooldowns.get(tenant, 0) <= 0
            for operation in (
                self.state.tenant(tenant).deployment.operations_on(busiest)
            )
        ]

    def _greedy_moves(
        self,
        targets: Sequence[str] | None,
        candidates: Callable[[dict[str, float]], list[tuple[str, str]]],
        max_moves: int,
    ) -> tuple[list[tuple[str, str, str, str]], float, float, float]:
        """Apply up to *max_moves* objective-improving single-op moves.

        *candidates* maps the current combined loads to the (tenant,
        operation) pairs eligible to move; *targets* restricts the
        destination servers (``None`` = any server). Each applied move is
        the best strictly-improving candidate under the fleet objective;
        the loop stops early when no candidate improves. Returns the
        moves ``(tenant, operation, source, target)``, the objective
        before and after -- the churn-vs-gain numbers the log reports --
        and the summed migration cost of the applied moves (0.0 without
        a migration model).

        With a :attr:`FleetConfig.migration` model at weight > 0 the
        acceptance test is *hysteretic*: a candidate's score is its
        objective plus the weighted one-time cost of moving that
        operation's state over the current links, and it must still
        undercut the standing objective -- churn that does not pay for
        itself is left alone. At weight 0 the plain strictly-improving
        comparison decides (migration cost is still *billed* into
        :attr:`migration_paid` when a model is configured). "Strictly"
        means by more than 1e-12, so float noise never moves anything.

        Every round scores its whole candidate set -- each eligible
        ``(tenant, operation)`` pair moved to each destination, built as
        integer arrays (tenant position, op index, source and target
        server index) -- as one array program (:meth:`_scan`); the
        candidates' tenant execution times come from one
        :meth:`BatchEvaluator.execution
        <repro.core.batch.BatchEvaluator.execution>` call per tenant
        over that tenant's rows (:meth:`_price_batched`). The standing
        per-tenant prices the scan starts from come from
        :meth:`FleetState.price <repro.service.state.FleetState.price>`.
        Server and operation names appear only in the applied moves.

        :attr:`evaluations` grows by one for the standing objective and
        then by each round's scanned rows.
        """
        state = self.state
        network = state.network
        names = network.server_names
        column = {name: j for j, name in enumerate(names)}
        destinations = np.array(
            [column[name] for name in (names if targets is None else targets)],
            dtype=np.intp,
        )
        power = np.array([server.power_hz for server in network])
        tenants = state.tenants
        position = {tenant: t for t, tenant in enumerate(tenants)}
        exec_times = [state.price(tenant).execution_time for tenant in tenants]
        loads = np.array(list(state.combined_loads().values()))
        migration_model = self.config.migration
        aware = self._transition_aware

        def move_cost(
            instance: CompiledInstance, op: int, source: int, target: int
        ) -> float:
            """One-time cost of moving operation *op*'s state to *target*.

            The model's price of the checkpoint transfer over the fleet's
            current links (routed through the tenant's compiled
            instance). State size scales with the operation's raw cycle
            count -- probability never shrinks a checkpoint.
            """
            return migration_model.move_cost(
                instance.delay(
                    source, target, migration_model.state_bits(instance.cycles[op])
                )
            )

        self.evaluations += 1
        current = state.objective_value(
            max(exec_times, default=0.0),
            penalty_statistic(loads.tolist(), state.penalty_mode),
        )
        before = current
        migration_total = 0.0
        moves: list[tuple[str, str, str, str]] = []

        for _ in range(max_moves):
            instances: dict[int, CompiledInstance] = {}
            pairs: list[tuple[int, int, int]] = []
            pair_weights: list[float] = []
            for tenant, operation in candidates(
                dict(zip(names, loads.tolist()))
            ):
                t = position[tenant]
                instance = instances.get(t)
                if instance is None:
                    instance = state.cost_model(tenant).compiled
                    instances[t] = instance
                op = instance.op_index[operation]
                server = state.tenant(tenant).deployment.server_of(operation)
                pairs.append((t, op, column[server]))
                pair_weights.append(instance.wcycles[op])
            # every pair to every destination but its own source, in
            # pair order: the first minimal net wins
            width = len(destinations)
            grid = np.repeat(
                np.array(pairs, dtype=np.intp).reshape(-1, 3), width, axis=0
            )
            target = np.tile(destinations, len(pairs))
            keep = target != grid[:, 2]
            tenant_of, op_of, source = grid[keep].T
            target = target[keep]
            weighted = np.repeat(pair_weights, width)[keep]
            scanned = len(target)
            self.evaluations += scanned
            priced = self._price_batched(tenant_of, op_of, target, instances)
            costs = (
                np.array(
                    [
                        move_cost(instances[t], op, src, dst)
                        for t, op, src, dst in zip(
                            tenant_of.tolist(),
                            op_of.tolist(),
                            source.tolist(),
                            target.tolist(),
                        )
                    ]
                )
                if aware
                else None
            )
            best = self._scan(
                tenant_of, source, target, weighted, priced, costs,
                exec_times, loads, power, current - 1e-12,
            )
            if best is None:
                break
            row, value, new_loads = best
            t, op = int(tenant_of[row]), int(op_of[row])
            src, dst = int(source[row]), int(target[row])
            instance = instances[t]
            tenant = tenants[t]
            operation = instance.op_names[op]
            cost = float(costs[row]) if aware else 0.0
            if migration_model is not None and not aware:
                # weight 0: the move was chosen blind, but its cost
                # is still billed (benchmarks charge naive churn)
                cost = move_cost(instance, op, src, dst)
            state.tenant(tenant).deployment.assign(operation, names[dst])
            exec_times[t] = float(priced[row])
            # the standing objective never carries the one-time
            # migration term -- hysteresis compares future nets
            # against the objective actually achieved
            current = value
            loads = new_loads
            if migration_model is not None:
                migration_total += cost
                self.migration_paid += cost
            moves.append((tenant, operation, names[src], names[dst]))
        return moves, before, current, migration_total

    def _price_batched(
        self,
        tenant_of: np.ndarray,
        op: np.ndarray,
        target: np.ndarray,
        instances: dict[int, CompiledInstance],
    ) -> np.ndarray:
        """Candidate tenant execution times through the batch kernel.

        Row ``k`` moves op index ``op[k]`` of tenant position
        ``tenant_of[k]`` to server index ``target[k]``; *instances* maps
        a tenant position to its compiled instance. One ``(K_t, M_t)``
        batch per tenant -- its current server vector with one
        operation relocated per row -- priced by
        :meth:`BatchEvaluator.execution
        <repro.core.batch.BatchEvaluator.execution>`.
        """
        tenants = self.state.tenants
        priced = np.empty(len(tenant_of))
        for t, instance in instances.items():
            slots = np.flatnonzero(tenant_of == t)
            if not len(slots):
                continue
            base = instance.server_vector(self.state.tenant(tenants[t]).deployment)
            rows = np.repeat(np.array([base], dtype=np.intp), len(slots), axis=0)
            rows[np.arange(len(slots)), op[slots]] = target[slots]
            priced[slots] = instance.batch_evaluator().execution(rows)
        return priced

    def _scan(
        self,
        tenant_of: np.ndarray,
        source: np.ndarray,
        target: np.ndarray,
        weighted: np.ndarray,
        priced: np.ndarray,
        costs: np.ndarray | None,
        exec_times: list[float],
        loads: np.ndarray,
        power: np.ndarray,
        bar: float,
    ) -> tuple[int, float, np.ndarray] | None:
        """Select one rebalance round's winner as one array program.

        Row ``k`` moves weighted cycles ``weighted[k]`` of tenant
        position ``tenant_of[k]`` from server index ``source[k]`` to
        ``target[k]``, and its tenant execution time is ``priced[k]``:
        the fleet execution is the max over the other tenants' standing
        *exec_times* (in tenant order) and ``priced[k]``; the trial
        loads are the standing *loads* with exactly the scalar
        ``weighted / power`` update on the source and target columns;
        the penalty is
        :func:`~repro.core.batch.penalty_rows` (left-to-right, as the
        scalar statistic); *costs* (per-row move costs, or ``None``)
        enter the net at the migration weight. The winner is the first
        minimal net strictly below *bar*. Returns ``(row, objective,
        trial loads)`` of the winner, or ``None`` when no row clears
        the bar.
        """
        from repro.core.batch import penalty_rows

        if not len(tenant_of):
            return None
        state = self.state
        # max over every *other* tenant (-inf for a lone tenant): the
        # prefix max before each tenant joined with the suffix max after
        execs = np.array(exec_times)
        others = np.full(len(execs), -np.inf)
        others[1:] = np.maximum.accumulate(execs[:-1])
        suffix = np.maximum.accumulate(execs[::-1])[::-1]
        others[:-1] = np.maximum(others[:-1], suffix[1:])
        execution = np.maximum(others[tenant_of], priced)
        trial = np.repeat(loads[None, :], len(tenant_of), axis=0)
        rows = np.arange(len(tenant_of))
        trial[rows, source] = loads[source] - weighted / power[source]
        trial[rows, target] = loads[target] + weighted / power[target]
        values = state.objective_value(
            execution, penalty_rows(trial, state.penalty_mode)
        )
        net = values
        if costs is not None:
            net = values + self.config.migration_weight * costs
        eligible = np.flatnonzero(net < bar)
        if not len(eligible):
            return None
        row = int(eligible[np.argmin(net[eligible])])
        return row, float(values[row]), trial[row].copy()

    # ------------------------------------------------------------------
    # metrics
    # ------------------------------------------------------------------
    def metrics(self) -> FleetMetrics:
        """Aggregate :class:`~repro.service.log.FleetMetrics` so far."""
        records = self.log.records
        by_kind: dict[str, int] = {}
        for record in records:
            by_kind[record.event] = by_kind.get(record.event, 0) + 1
        latencies = [record.latency_s for record in records]
        recovered = self.log.filter("server-failed", "recovered")
        rebalanced = self.log.filter("tick", "rebalanced")
        joined = self.log.filter("server-joined", "joined")
        churn = sum(int(r.detail("churn")) for r in rebalanced) + sum(
            int(r.detail("spread_moves")) for r in joined
        )
        # link events rebalance too, but only when drift crossed the
        # threshold -- their records carry "churn" only in that case
        for record in self.log.filter("link-failed", "rerouted") + (
            self.log.filter("link-degraded", "degraded")
        ):
            churn += int(record.details_dict.get("churn", "0"))
        snapshot = self.state.snapshot()
        return FleetMetrics(
            events=len(records),
            events_by_kind=tuple(sorted(by_kind.items())),
            admitted=len(self.log.filter("deploy", "admitted")),
            rejected=len(self.log.filter("deploy", "rejected")),
            undeployed=len(self.log.filter("undeploy", "removed")),
            failures_recovered=len(recovered),
            servers_joined=len(joined),
            orphans_rehomed=sum(int(r.detail("orphans")) for r in recovered),
            rebalances=len(rebalanced),
            rebalance_moves=churn,
            mean_latency_s=(
                ordered_sum(latencies) / len(latencies) if latencies else 0.0
            ),
            max_latency_s=max(latencies, default=0.0),
            placement_evaluations=self.evaluations,
            cost_model_hits=self.state.cost_model_hits,
            cost_model_misses=self.state.cost_model_misses,
            route_dijkstra_runs=self.state.router_dijkstra_runs,
            route_pairs_invalidated=self.state.router_pairs_invalidated,
            route_pairs_recomputed=self.state.router_pairs_recomputed,
            balance_timeline=tuple(self._balance_timeline),
            final_objective=snapshot.objective,
            final_execution_time=snapshot.execution_time,
            final_time_penalty=snapshot.time_penalty,
            final_balance_index=snapshot.balance_index,
            tenants_hosted=snapshot.tenants,
            migration_paid=self.migration_paid,
        )
