"""Typed events consumed by the fleet controller.

The controller is deliberately event-driven: everything that can happen
to a live fleet -- a tenant asking for a workflow to be hosted, a tenant
leaving, a server failing or joining, and the periodic fairness check --
is a small immutable value object. Scenarios are then just lists of
events, which is what makes a whole service lifecycle replayable and
byte-for-byte reproducible (see :mod:`repro.service.scenarios`).

Every event carries a ``kind`` label used in the :class:`~repro.service.log.FleetLog`
and the metrics breakdown.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.core.workflow import Workflow
from repro.exceptions import ServiceError

__all__ = [
    "FleetEvent",
    "DeployRequest",
    "UndeployRequest",
    "ServerFailed",
    "ServerJoined",
    "WorkloadDrift",
    "CapacityDrift",
    "LinkFailure",
    "LinkDegrade",
    "RegionOutage",
    "Tick",
    "EVENT_TYPES",
]


@dataclass(frozen=True)
class FleetEvent:
    """Base class for everything the controller can consume.

    Subclasses set :attr:`kind`, the label used in log records and the
    per-event-kind metrics breakdown.
    """

    kind = "event"


@dataclass(frozen=True)
class DeployRequest(FleetEvent):
    """A tenant asks the fleet to host a workflow.

    Attributes
    ----------
    tenant:
        Unique tenant identifier; a second request under the same name
        is rejected (undeploy first).
    workflow:
        The workflow to host. Operation names may collide across tenants;
        the fleet state namespaces them internally.
    algorithm:
        Optional per-request override of the controller's placement
        algorithm (a registered algorithm name).
    """

    kind = "deploy"

    tenant: str
    workflow: Workflow
    algorithm: str | None = None

    def __post_init__(self) -> None:
        if not self.tenant:
            raise ServiceError("DeployRequest needs a non-empty tenant name")


@dataclass(frozen=True)
class UndeployRequest(FleetEvent):
    """A tenant leaves; its operations are removed from the fleet."""

    kind = "undeploy"

    tenant: str


@dataclass(frozen=True)
class ServerFailed(FleetEvent):
    """A server died; its operations are orphaned and must be re-homed."""

    kind = "server-failed"

    server: str


@dataclass(frozen=True)
class ServerJoined(FleetEvent):
    """New capacity: a server joins the fleet.

    The server is linked to every existing server (the paper's bus
    assumption -- one shared medium), so the fleet stays connected and
    routable without topology-specific wiring in scenarios.

    Attributes
    ----------
    server:
        Name of the new server; must not collide with a live one.
    power_hz:
        Computational power ``P(s)``.
    link_speed_bps:
        Speed of the links attaching it to the existing servers.
    propagation_s:
        Propagation delay of those links.
    """

    kind = "server-joined"

    server: str
    power_hz: float
    link_speed_bps: float
    propagation_s: float = 0.0


@dataclass(frozen=True)
class WorkloadDrift(FleetEvent):
    """A tenant's workload parameters drifted.

    The replacement workflow must keep the *same operation names* (the
    controller rejects the event otherwise): drift perturbs message
    sizes, XOR branch probabilities or cycle counts, it does not change
    the workflow's shape, so the tenant's current placement stays valid
    and only its cost model needs recompiling. Whether the fleet then
    *acts* on the new numbers is the tick rebalancer's decision -- this
    event only updates what the fleet believes about the workload.

    Attributes
    ----------
    tenant:
        The tenant whose workload drifted.
    workflow:
        The drifted workflow (see
        :func:`repro.service.scenarios.drift_workflow`).
    """

    kind = "workload-drift"

    tenant: str
    workflow: Workflow

    def __post_init__(self) -> None:
        if not self.tenant:
            raise ServiceError("WorkloadDrift needs a non-empty tenant name")


@dataclass(frozen=True)
class CapacityDrift(FleetEvent):
    """A server's effective capacity changed.

    Models throttling, contention from co-located workloads, or a
    hardware upgrade: the server keeps its links and its hosted
    operations, only ``P(s)`` changes. Every tenant's cost model is
    recompiled (capacity enters every ``Tproc`` table).

    Attributes
    ----------
    server:
        The affected server; must be live.
    power_hz:
        The new computational power ``P(s)`` (> 0).
    """

    kind = "capacity-drift"

    server: str
    power_hz: float


@dataclass(frozen=True)
class LinkFailure(FleetEvent):
    """A link between two live servers went dark.

    The controller removes the link from the topology, invalidates the
    route-delay tables (placements stay valid -- only message paths
    change) and runs a drift check with a bounded rebalance. A failure
    that would disconnect the fleet is rejected and the link kept: a
    partitioned fleet cannot route, so the event models the last
    redundant path dying, not a full partition.
    """

    kind = "link-failed"

    a: str
    b: str


@dataclass(frozen=True)
class LinkDegrade(FleetEvent):
    """A link's parameters changed: brownout, congestion, or an upgrade.

    The link between *a* and *b* keeps its place in the topology but
    its speed is multiplied by *speed_factor* and its propagation delay
    by *propagation_factor*. Factors above 1 model upgrades; the
    controller only recomputes routes and re-checks drift either way.

    Attributes
    ----------
    a, b:
        Endpoint server names (order-insensitive, as in
        :class:`~repro.network.topology.Link`).
    speed_factor:
        Multiplier on the link's ``speed_bps`` (> 0, finite).
    propagation_factor:
        Multiplier on the link's ``propagation_s`` (>= 0, finite;
        default 1.0 leaves propagation untouched).
    """

    kind = "link-degraded"

    a: str
    b: str
    speed_factor: float
    propagation_factor: float = 1.0

    def __post_init__(self) -> None:
        if not (math.isfinite(self.speed_factor) and self.speed_factor > 0):
            raise ServiceError(
                f"LinkDegrade speed_factor must be finite and > 0, "
                f"got {self.speed_factor!r}"
            )
        if not (
            math.isfinite(self.propagation_factor)
            and self.propagation_factor >= 0
        ):
            raise ServiceError(
                f"LinkDegrade propagation_factor must be finite and >= 0, "
                f"got {self.propagation_factor!r}"
            )


@dataclass(frozen=True)
class RegionOutage(FleetEvent):
    """Every server of one geo region fails at once.

    Region membership is parsed from server names by
    :func:`repro.scenarios.geo.region_of` (the ``{region}/{i}`` naming
    of the geo factories; a bare name is its own region). The
    controller fails all member servers, then re-homes the orphans of
    every affected tenant in one fleet-wide pass -- so orphans are
    never parked on a server that is about to die in the same outage.
    An outage covering the whole fleet is rejected.
    """

    kind = "region-outage"

    region: str

    def __post_init__(self) -> None:
        if not self.region:
            raise ServiceError("RegionOutage needs a non-empty region name")


@dataclass(frozen=True)
class Tick(FleetEvent):
    """Periodic maintenance: check fairness drift, maybe rebalance.

    Ticks are explicit events rather than wall-clock timers so that a
    scenario replay is deterministic: the drift check happens exactly
    where the trace says it does.
    """

    kind = "tick"


#: Every concrete event class by its :attr:`~FleetEvent.kind` -- the one
#: registry the document codec (:mod:`repro.service.checkpoint`)
#: decodes through.
EVENT_TYPES: dict[str, type[FleetEvent]] = {
    cls.kind: cls
    for cls in (
        DeployRequest,
        UndeployRequest,
        ServerFailed,
        ServerJoined,
        WorkloadDrift,
        CapacityDrift,
        LinkFailure,
        LinkDegrade,
        RegionOutage,
        Tick,
    )
}
