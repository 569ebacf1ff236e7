"""Live fleet state: servers, tenants, and the shared evaluation caches.

The one-shot experiment modules treat a (workflow, network) pair as an
immutable problem instance. A long-running provider has neither luxury:
servers come and go, tenants arrive and leave, and every admission or
recovery decision must be priced against the *cumulative* load of
everything already hosted. :class:`FleetState` owns exactly that mutable
picture:

* the fleet :class:`~repro.network.topology.ServerNetwork`, mutated by
  joins and rebuilt (via the failover machinery) by failures;
* one :class:`~repro.core.mapping.Deployment` per tenant, so operation
  names never collide across tenants;
* a shared :class:`~repro.network.routing.Router` with its one
  index-keyed route table (and the batch kernel's dense delay matrices
  over it) that every tenant borrows, and a per-tenant
  :class:`~repro.core.cost.CostModel` cache -- the "shared
  cost-evaluation cache across tenants" that makes a 200-event replay
  cheap. Each cached cost model carries the tenant's
  :class:`~repro.core.compiled.CompiledInstance`, the one compiled
  artifact its move evaluators, scorers and simulations all borrow.
  The caches follow the paper's split of the cost model: ``Tcomm``
  depends only on the network, ``Tproc`` on the operation and the
  server. A link event refreshes the shared route table once, in
  place, and each tenant only its migration rows. A server failure or
  join replaces the router (a capacity change keeps it: routes do not
  depend on server power), and each tenant's next cost model *rebinds*
  its compiled workflow to the current router
  (:meth:`~repro.core.compiled.CompiledInstance.rebind`), re-deriving
  only ``Tproc`` and the ideal loads; a workload drift recompiles that
  one tenant's workflow;
* a per-tenant :class:`TenantPrice` cache (execution time and loads
  in server order) keyed in O(1) by the identity of the tenant's cost
  model and deployment and the deployment's
  :attr:`~repro.core.mapping.Deployment.stamp`. Server changes and
  drifts replace the cost model; a link event drops only the prices of
  tenants with a message between two servers whose route it changed.
  A snapshot therefore re-prices only the tenants whose placement or
  routes actually changed since the last one.

All aggregate metrics (combined loads, fairness penalty, Jain balance
index, the scalar fleet objective) are deterministic functions of the
state, which is what lets the controller log byte-identical replays.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping

import networkx as nx

from repro.core.compiled import CompiledInstance, penalty_statistic
from repro.core.cost import PENALTY_MODES, CostModel
from repro.core.mapping import Deployment
from repro.core.migration import TransitionObjective
from repro.core.workflow import Workflow
from repro.exceptions import ServiceError
from repro.network.routing import Router
from repro.network.topology import Link, Server, ServerNetwork, remove_server
from repro.numeric import ordered_sum

__all__ = [
    "TenantDeployment",
    "TenantPrice",
    "FleetSnapshot",
    "FleetState",
    "jain_index",
]

@dataclass(frozen=True)
class TenantDeployment:
    """One hosted tenant: its workflow and current mapping."""

    tenant: str
    workflow: Workflow
    deployment: Deployment


@dataclass(frozen=True)
class TenantPrice:
    """One tenant's priced standing state (see :meth:`FleetState.price`).

    Attributes
    ----------
    execution_time:
        The tenant's ``Texecute`` under its current placement.
    loads:
        The tenant's own load in seconds on every server, in network
        server order.
    """

    execution_time: float
    loads: tuple[float, ...]


@dataclass(frozen=True)
class FleetSnapshot:
    """Aggregate health of the fleet at one instant.

    Attributes
    ----------
    execution_time:
        Max ``Texecute`` over all tenants (they run concurrently, as in
        :mod:`repro.experiments.multi_workflow`); 0 with no tenants.
    time_penalty:
        Fairness penalty over the *combined* per-server loads.
    objective:
        ``execution_weight * execution_time + penalty_weight * time_penalty``
        -- the fleet-level scalar the drift check and rebalances optimise.
    loads:
        Combined per-server load in seconds (every server listed).
    balance_index:
        Jain's fairness index of the loads: 1.0 is perfectly fair,
        ``1/N`` is everything on one of N servers.
    tenants:
        Number of hosted tenants.
    """

    execution_time: float
    time_penalty: float
    objective: float
    loads: Mapping[str, float]
    balance_index: float
    tenants: int


def jain_index(loads: Mapping[str, float]) -> float:
    """Jain's fairness index ``(sum x)^2 / (n * sum x^2)``.

    1.0 when every server carries the same load; an idle fleet is
    considered perfectly fair.
    """
    values = list(loads.values())
    if not values:
        return 1.0
    square_sum = ordered_sum(v * v for v in values)
    if square_sum <= 0:
        return 1.0
    total = ordered_sum(values)
    return total * total / (len(values) * square_sum)


class FleetState:
    """Mutable multi-tenant fleet: network + per-tenant deployments.

    Parameters
    ----------
    network:
        The initial server fleet. The state takes ownership: joins mutate
        it and failures replace it with a shrunken copy.
    execution_weight, penalty_weight, penalty_mode:
        Fleet-objective knobs, with the same semantics (and defaults) as
        :class:`~repro.core.cost.CostModel`.

    Link events refresh the shared routing caches in place (see
    :meth:`_invalidate_routes`): only the single-source passes a changed
    link could alter re-run, and only the pairs whose paths moved are
    reclassified.
    """

    def __init__(
        self,
        network: ServerNetwork,
        execution_weight: float = 0.5,
        penalty_weight: float = 0.5,
        penalty_mode: str = "mad",
    ):
        if penalty_mode not in PENALTY_MODES:
            raise ServiceError(
                f"unknown penalty mode {penalty_mode!r}; expected one of "
                f"{PENALTY_MODES}"
            )
        self._network = network
        self.execution_weight = execution_weight
        self.penalty_weight = penalty_weight
        self.penalty_mode = penalty_mode
        #: The fleet-level objective specification. Migration is a
        #: *transition* cost priced per candidate move by the controller,
        #: not a recurring property of the standing fleet, so the
        #: fleet-state spec never carries a migration term itself.
        self.objective = TransitionObjective(
            execution_weight=execution_weight,
            penalty_weight=penalty_weight,
            penalty_mode=penalty_mode,
        )
        self._router = Router(network)
        self._tenants: dict[str, TenantDeployment] = {}
        self._cost_models: dict[str, CostModel] = {}
        # tenant -> its compiled instance from before the last server
        # change: the next cost model rebinds its workflow half
        self._stale: dict[str, CompiledInstance] = {}
        # tenant -> (cost model, deployment, its stamp, server vector,
        # price); link events drop the entries whose routes moved
        self._prices: dict[
            str,
            tuple[CostModel, Deployment, int, tuple[int, ...], TenantPrice],
        ] = {}
        self.cost_model_hits = 0
        self.cost_model_misses = 0
        self.price_hits = 0
        self.price_misses = 0

    # ------------------------------------------------------------------
    # basic queries
    # ------------------------------------------------------------------
    @property
    def network(self) -> ServerNetwork:
        """The current fleet network (replaced on server failure)."""
        return self._network

    @property
    def router(self) -> Router:
        """The shared router (replaced, counters preserved, on failure)."""
        return self._router

    @property
    def router_hits(self) -> int:
        """Lifetime router cache hits."""
        return self._router.hits

    @property
    def router_misses(self) -> int:
        """Lifetime router cache misses."""
        return self._router.misses

    @property
    def router_dijkstra_runs(self) -> int:
        """Lifetime single-source Dijkstra passes of the shared router."""
        return self._router.dijkstra_runs

    @property
    def router_pairs_invalidated(self) -> int:
        """Route pairs link events reported as changed."""
        return self._router.pairs_invalidated

    @property
    def router_pairs_recomputed(self) -> int:
        """Route pairs reclassified after link events."""
        return self._router.pairs_recomputed

    @property
    def tenants(self) -> tuple[str, ...]:
        """Hosted tenant names in admission order."""
        return tuple(self._tenants)

    def __contains__(self, tenant: str) -> bool:
        return tenant in self._tenants

    def __len__(self) -> int:
        return len(self._tenants)

    def tenant(self, name: str) -> TenantDeployment:
        """The :class:`TenantDeployment` for *name* or raise."""
        try:
            return self._tenants[name]
        except KeyError:
            raise ServiceError(f"no tenant {name!r} in the fleet") from None

    # ------------------------------------------------------------------
    # tenant lifecycle
    # ------------------------------------------------------------------
    def add_tenant(
        self,
        tenant: str,
        workflow: Workflow,
        deployment: Deployment,
        cost_model: CostModel | None = None,
    ) -> TenantDeployment:
        """Register a placed tenant; raise on duplicates.

        A *cost_model* already built for the admission decision (against
        the current topology and shared router) seeds the cache.
        """
        if tenant in self._tenants:
            raise ServiceError(f"tenant {tenant!r} is already hosted")
        deployment.validate(workflow, self._network)
        record = TenantDeployment(tenant, workflow, deployment)
        self._tenants[tenant] = record
        if cost_model is not None:
            self._cost_models[tenant] = cost_model
        return record

    def remove_tenant(self, tenant: str) -> TenantDeployment:
        """Drop *tenant* and its cached cost model."""
        record = self.tenant(tenant)
        del self._tenants[tenant]
        self._cost_models.pop(tenant, None)
        self._stale.pop(tenant, None)
        self._prices.pop(tenant, None)
        self._drop_unpriced_sizes()
        return record

    def update_tenant_workflow(
        self, tenant: str, workflow: Workflow
    ) -> TenantDeployment:
        """Replace a hosted tenant's workflow with a drifted version.

        The replacement must keep exactly the same operation names (the
        shape-preserving drift contract of
        :class:`~repro.service.events.WorkloadDrift`), so the tenant's
        current placement stays valid and only *its* workflow is
        recompiled -- every other tenant's cache is untouched.
        """
        record = self.tenant(tenant)
        if sorted(workflow.operation_names) != sorted(
            record.workflow.operation_names
        ):
            raise ServiceError(
                f"workload drift for tenant {tenant!r} must keep the same "
                f"operation names"
            )
        updated = TenantDeployment(tenant, workflow, record.deployment)
        self._tenants[tenant] = updated
        self._cost_models.pop(tenant, None)
        self._stale.pop(tenant, None)
        self._drop_unpriced_sizes()
        return updated

    # ------------------------------------------------------------------
    # shared evaluation caches
    # ------------------------------------------------------------------
    def cost_model(self, tenant: str) -> CostModel:
        """The tenant's cost model, cached until a server change.

        A miss after a server failure, join or capacity change rebinds
        the tenant's compiled workflow to the current network and router
        (:meth:`~repro.core.compiled.CompiledInstance.rebind`); only a
        tenant with nothing compiled yet, or a drifted workflow, goes
        through :meth:`build_cost_model`. Both count as a miss.
        """
        record = self.tenant(tenant)
        cached = self._cost_models.get(tenant)
        if cached is not None:
            self.cost_model_hits += 1
            return cached
        stale = self._stale.pop(tenant, None)
        if stale is None:
            model = self.build_cost_model(record.workflow)
        else:
            self.cost_model_misses += 1
            model = CostModel.from_compiled(
                stale.rebind(
                    self._network,
                    router=self._router,
                    objective=self.objective,
                )
            )
        self._cost_models[tenant] = model
        return model

    def build_cost_model(self, workflow: Workflow) -> CostModel:
        """A cost model for a not-yet-admitted workflow (shared router).

        Counted as a cost-model cache miss: it is the cold build whose
        result :meth:`add_tenant` seeds into the cache on admission.
        """
        self.cost_model_misses += 1
        return CostModel(
            workflow,
            self._network,
            router=self._router,
            objective=self.objective,
        )

    def price(self, tenant: str) -> TenantPrice:
        """The tenant's :class:`TenantPrice`, re-priced only on change.

        The cached price is served while the tenant's cost model and
        deployment are the same objects (``is``: a drift or server
        change replaces the model) and the deployment's
        :attr:`~repro.core.mapping.Deployment.stamp` is unchanged (every
        mutation redraws it). Link events keep the cost models but
        rewrite their routes, so :meth:`_invalidate_routes` drops the
        prices they touch. A miss validates the deployment and runs the
        tenant's forward pass and load scatter once -- the exact floats
        of :meth:`CostModel.execution_time
        <repro.core.cost.CostModel.execution_time>` and
        :meth:`CostModel.loads <repro.core.cost.CostModel.loads>`.
        """
        record = self.tenant(tenant)
        model = self.cost_model(tenant)
        deployment = record.deployment
        cached = self._prices.get(tenant)
        if (
            cached is not None
            and cached[0] is model
            and cached[1] is deployment
            and cached[2] == deployment.stamp
        ):
            self.price_hits += 1
            return cached[4]
        self.price_misses += 1
        deployment.validate(record.workflow, self._network)
        compiled = model.compiled
        servers = tuple(compiled.server_vector(deployment))
        price = TenantPrice(
            execution_time=compiled.execution_from(
                compiled.forward_pass(servers)
            ),
            loads=tuple(compiled.load_values(servers)),
        )
        self._prices[tenant] = (
            model, deployment, deployment.stamp, servers, price
        )
        return price

    def _invalidate_caches(self) -> None:
        """Servers joined or left: replace the router, drop every cost model.

        The new router fills on demand: the first query from a server
        fills that server's rows, the same work
        :meth:`~repro.network.routing.Router.compile_all_pairs` does for
        every server in one sweep.
        """
        self._stale_cost_models()
        router = Router(self._network)
        router.hits = self._router.hits
        router.misses = self._router.misses
        router.dijkstra_runs = self._router.dijkstra_runs
        router.pairs_invalidated = self._router.pairs_invalidated
        router.pairs_recomputed = self._router.pairs_recomputed
        self._router = router

    def _stale_cost_models(self) -> None:
        """Drop every cost model, keeping its compiled instance to rebind.

        The tenant's next :meth:`cost_model` rebinds the kept instance's
        workflow half to the current network and router instead of
        recompiling it.
        """
        for tenant, model in self._cost_models.items():
            self._stale[tenant] = model.compiled
        self._cost_models.clear()

    def _invalidate_routes(self) -> None:
        """Link parameters changed: rebuild only the route tables.

        The cheap sibling of :meth:`_invalidate_caches` for the
        link-level events: the server set, powers and every tenant's
        compiled arrays are still valid, so the cached cost models are
        *kept* and only their route-delay state refreshes. The shared
        router recomputes *once* and refreshes the route table and dense
        delay matrices every tenant borrows, in place (see
        :meth:`repro.network.routing.Router.invalidate`); then each
        transition-aware tenant re-prices its migration rows.

        A cached :meth:`price` is dropped only when one of the tenant's
        messages runs between two different servers whose pair the
        router reports as changed; every other price stays valid.
        """
        self._drop_unpriced_sizes()
        affected = self._router.invalidate()
        for model in self._cost_models.values():
            model.compiled.refresh_routes(affected)
        if not affected:
            return
        for tenant, (model, _deployment, _stamp, servers, _price) in list(
            self._prices.items()
        ):
            for src, dst, _size, _weight in model.compiled.messages:
                a, b = servers[src], servers[dst]
                if ((a, b) if a < b else (b, a)) in affected:
                    del self._prices[tenant]
                    break

    def _drop_unpriced_sizes(self) -> None:
        """Keep only the router's per-size state a cached tenant prices.

        The router's per-size paths and dense matrices are shared by
        every tenant, so nothing else frees the sizes of departed or
        drifted workflows; without this, every link event would re-price
        them. A tenant prices its
        :meth:`~repro.core.compiled.CompiledInstance.priced_sizes`.
        It runs on a tenant's leave or drift and before each link
        refresh, not on admissions: a stream of admissions with new
        message sizes grows the router's per-size state until the next
        such event.
        """
        models = self._cost_models.values()
        self._router.retain(
            set().union(*(model.compiled.priced_sizes() for model in models))
        )

    # ------------------------------------------------------------------
    # aggregate load accounting
    # ------------------------------------------------------------------
    def total_weighted_cycles(self) -> float:
        """Probability-weighted cycles of every hosted operation."""
        return ordered_sum(
            self.cost_model(name).total_weighted_cycles()
            for name in self._tenants
        )

    def mean_load_s(self, extra_cycles: float = 0.0) -> float:
        """Average per-server load in seconds, optionally projected.

        ``(hosted weighted cycles + extra_cycles) / Sum_Capacity`` -- the
        load every server would carry under a perfectly fair spread.
        This is the admission-control currency: *extra_cycles* prices a
        candidate workflow before it is placed.
        """
        return (
            self.total_weighted_cycles() + extra_cycles
        ) / self._network.total_power_hz

    def hosted_cycles(self) -> dict[str, float]:
        """Weighted cycles currently hosted per server (0 when idle).

        Unassigned operations (orphans mid-recovery) contribute nothing.
        """
        totals = {name: 0.0 for name in self._network.server_names}
        for name, record in self._tenants.items():
            compiled = self.cost_model(name).compiled
            wcycles = compiled.wcycles
            op_index = compiled.op_index
            for operation in record.workflow:
                server = record.deployment.get(operation.name)
                if server is None:
                    continue
                totals[server] += wcycles[op_index[operation.name]]
        return totals

    def remaining_budgets(self) -> dict[str, float]:
        """Capacity-proportional cycle headroom per server.

        ``Ideal_Cycles(s) - hosted(s)`` computed fleet-wide over the
        weighted cycles of *every* tenant operation, so the budgets sum
        to the cycles of unassigned operations (orphans mid-recovery;
        else zero up to rounding): what the orphan re-homing fills.
        """
        total = self.total_weighted_cycles()
        capacity = self._network.total_power_hz
        hosted = self.hosted_cycles()
        return {
            server.name: total * server.power_hz / capacity
            - hosted[server.name]
            for server in self._network
        }

    def objective_value(self, execution: float, penalty: float) -> float:
        """The fleet scalar objective from its two components.

        The single fleet-level combine -- shared by :meth:`snapshot` and
        the controller's rebalance pricing (both formerly inlined the
        formula) -- delegating to the state's
        :class:`~repro.core.migration.TransitionObjective`.
        """
        return self.objective.value(execution, penalty)

    def combined_loads(self) -> dict[str, float]:
        """Per-server load in seconds summed over every tenant.

        Tenants are added in admission order from their cached
        :meth:`price` -- the summation order is part of the result.
        """
        return self._combine([self.price(name) for name in self._tenants])

    def _combine(self, prices: list[TenantPrice]) -> dict[str, float]:
        totals = [0.0] * len(self._network)
        for price in prices:
            totals = [total + load for total, load in zip(totals, price.loads)]
        return dict(zip(self._network.server_names, totals))

    def snapshot(self) -> FleetSnapshot:
        """The current :class:`FleetSnapshot` (see its attribute docs)."""
        prices = [self.price(name) for name in self._tenants]
        loads = self._combine(prices)
        execution = max(
            (price.execution_time for price in prices), default=0.0
        )
        penalty = penalty_statistic(list(loads.values()), self.penalty_mode)
        return FleetSnapshot(
            execution_time=execution,
            time_penalty=penalty,
            objective=self.objective_value(execution, penalty),
            loads=loads,
            balance_index=jain_index(loads),
            tenants=len(self._tenants),
        )

    # ------------------------------------------------------------------
    # topology changes
    # ------------------------------------------------------------------
    def fail_server(self, *servers: str) -> dict[str, tuple[str, ...]]:
        """Remove *servers*; return the orphaned operations per tenant.

        The network is rebuilt without each server in turn
        (:func:`~repro.network.topology.remove_server`), orphaned
        assignments are dropped from the affected tenants' deployments
        (per tenant, in the order the servers fail), and every
        evaluation cache is invalidated. Callers (the controller) are
        responsible for re-homing the orphans.

        Transactional: when the surviving servers would not form one
        connected fleet -- or none would survive -- the fleet is left
        untouched and :class:`~repro.exceptions.ServiceError` is raised,
        as :meth:`drop_link` does, because a partitioned fleet cannot
        route messages. Only the survivors must stay connected: a server
        stranded between two failing ones does not block the outage.
        """
        for server in servers:
            self._network.server(server)  # raise early on unknown names
        names = ", ".join(map(repr, servers))
        if len(set(servers)) >= len(self._network):
            raise ServiceError(
                f"cannot fail {names}: the only fleet servers would be gone"
            )
        survivors = nx.restricted_view(self._network.graph, servers, ())
        if not nx.is_connected(survivors):
            raise ServiceError(f"failing {names} would disconnect the fleet")
        orphans: dict[str, list[str]] = {}
        for server in servers:
            for name, record in self._tenants.items():
                lost = record.deployment.operations_on(server)
                if lost:
                    orphans.setdefault(name, []).extend(lost)
                    for operation in lost:
                        record.deployment.unassign(operation)
            self._network = remove_server(self._network, server)
        self._invalidate_caches()
        return {name: tuple(lost) for name, lost in orphans.items()}

    def join_server(
        self,
        server: str,
        power_hz: float,
        link_speed_bps: float,
        propagation_s: float = 0.0,
    ) -> Server:
        """Add a server linked to every existing server (bus semantics).

        Transactional: the server and every link are *constructed* (and
        therefore validated) before the network is touched, so a bad
        ``power_hz``/``link_speed_bps``/``propagation_s`` raises with
        the fleet unchanged -- never a server left behind with its
        links missing.
        """
        if server in self._network:
            raise ServiceError(f"server {server!r} is already in the fleet")
        joined = Server(server, power_hz)
        links = [
            Link(other, server, link_speed_bps, propagation_s)
            for other in self._network.server_names
        ]
        self._network.add_server(joined)
        for link in links:
            self._network.add_link(link)
        self._invalidate_caches()
        return joined

    def drop_link(self, a: str, b: str) -> Link:
        """Remove the link between *a* and *b*; reject a partition.

        Transactional: when removing the link would disconnect the
        fleet (no redundant path exists), the network is left untouched
        -- adjacency order included, which breaks routing ties -- and
        :class:`~repro.exceptions.ServiceError` is raised: a
        partitioned fleet cannot route messages, so the caller (the
        controller's link-failure handler) turns this into a rejected
        event instead. On success only the route caches are
        invalidated: placements and compiled tenant arrays stay valid.
        """
        self._network.link(a, b)  # raise early on unknown links
        without = nx.restricted_view(self._network.graph, (), [(a, b)])
        if not nx.has_path(without, a, b):
            raise ServiceError(
                f"dropping link {a!r}-{b!r} would disconnect the fleet"
            )
        link = self._network.remove_link(a, b)
        self._invalidate_routes()
        return link

    def degrade_link(
        self,
        a: str,
        b: str,
        speed_factor: float,
        propagation_factor: float = 1.0,
    ) -> Link:
        """Scale a link's speed/propagation in place; routes rebuild.

        The replacement :class:`~repro.network.topology.Link` is
        constructed (and validated) first, so a factor that would
        produce an invalid link raises with the fleet unchanged. The
        graph structure is untouched -- only route caches invalidate,
        and the router works out from its own snapshot which routes the
        new link parameters can move.
        """
        link = self._network.link(a, b)
        degraded = Link(
            link.a,
            link.b,
            link.speed_bps * speed_factor,
            link.propagation_s * propagation_factor,
        )
        self._network.replace_link(degraded)
        self._invalidate_routes()
        return degraded

    def set_server_power(self, server: str, power_hz: float) -> Server:
        """Change a live server's capacity; links and placements survive.

        The replacement :class:`~repro.network.topology.Server` is
        constructed (and validated) first, then swapped in place --
        capacity enters every tenant's ``Tproc`` table, so every cost
        model is rebound. Routes do not depend on server power: the
        router, its route table and dense matrices are kept.
        """
        self._network.server(server)  # raise early on unknown names
        updated = self._network.replace_server(Server(server, power_hz))
        self._stale_cost_models()
        return updated
