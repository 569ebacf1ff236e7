"""Scripted, seeded fleet scenarios and the replay driver.

A scenario is a complete service lifecycle frozen into data: an initial
fleet network, a :class:`~repro.service.controller.FleetConfig`, and an
ordered event trace (arrivals, departures, failures, joins, ticks). All
randomness -- workflow shapes, server powers, arrival ordering -- is
drawn from one seed, and replays run the controller under a
deterministic :class:`~repro.service.controller.StepClock`, so the same
``(name, seed)`` pair always produces byte-identical logs and metrics.

Three builtin scenarios cover the interesting regimes:

``steady``
    A small fleet absorbing tenant arrivals and departures; no
    infrastructure events. Exercises admission and drift checks.
``churn``
    Arrivals under a finite admission capacity plus server failures and
    a join: the full recovery story, with some requests rejected.
``surge``
    A 200-event trace over a 20-server fleet -- the benchmark scenario
    for events/second throughput and shared-cache hit rates.
``drift``
    Workload and capacity parameters drifting round after round on a
    6-server fleet under a tight rebalance trigger -- the scenario the
    migration benchmarks replay with and without a transition-aware
    objective (see :mod:`repro.core.migration`).
``abilene``
    Tenants on the bundled real Abilene backbone
    (:func:`repro.scenarios.abilene_network`) under trunk brownouts,
    a link failure and a rejected would-partition failure -- the
    topology-benchmark scenario.
``geo``
    A four-region geo-distributed fleet
    (:func:`repro.scenarios.random_geo_network`) losing an inter-region
    backbone link and then a whole region.
``diurnal``
    A three-region fleet under sixteen rounds of sinusoidal traffic
    waves (:func:`wave_workflow` scaling every message size up and
    down through the day) while the inter-region trunk browns out at
    every peak and recovers at every trough -- alternating worsening
    and improving route refreshes round after round.

:func:`drift_workflow` and :func:`drift_capacity` are the seeded
perturbation helpers behind the ``drift`` trace: shape-preserving
multiplicative noise on message sizes / XOR branch probabilities and on
a server's power. Zero amplitude is an exact no-op that draws nothing
from the RNG. :func:`wave_workflow` is their deterministic sibling:
an exact multiplicative rescale of every message size, the building
block of the ``diurnal`` traffic waves.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, replace
from typing import Callable

from repro.core.rng import coerce_rng
from repro.core.workflow import NodeKind, Workflow
from repro.exceptions import ServiceError
from repro.network.topology import Server, ServerNetwork
from repro.numeric import ordered_sum
from repro.scenarios import abilene_network, random_geo_network, region_of
from repro.service.controller import FleetConfig, FleetController, StepClock
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
from repro.workloads.generator import (
    GraphStructure,
    line_workflow,
    random_bus_network,
    random_graph_workflow,
)

__all__ = [
    "Scenario",
    "builtin_scenarios",
    "build_scenario",
    "drift_capacity",
    "drift_workflow",
    "replay",
    "wave_workflow",
]


@dataclass(frozen=True)
class Scenario:
    """One replayable lifecycle: fleet + config + event trace.

    A built scenario is one-shot: the controller takes ownership of
    (and mutates) :attr:`network`. To replay again, rebuild from the
    same ``(name, seed)`` -- which is exactly what
    :func:`replay` does when given a name instead of an instance.
    """

    name: str
    description: str
    network: ServerNetwork
    config: FleetConfig
    events: tuple[FleetEvent, ...]


def _tenant_workflow(rng: random.Random, index: int, graph_share: float = 0.3):
    """A small tenant workflow: mostly lines, some random graphs."""
    size = rng.randint(6, 14)
    seed = rng.randrange(2**31)
    if rng.random() < graph_share:
        return random_graph_workflow(
            size,
            GraphStructure.HYBRID,
            seed=seed,
            name=f"tenant-{index:03d}-graph",
        )
    return line_workflow(size, seed=seed, name=f"tenant-{index:03d}-line")


def _build_steady(seed: int) -> Scenario:
    """Arrivals and departures on a 6-server fleet, no infrastructure."""
    rng = coerce_rng(seed)
    network = random_bus_network(
        6, seed=rng.randrange(2**31), name="fleet-steady"
    )
    events: list[FleetEvent] = []
    for index in range(1, 9):
        events.append(
            DeployRequest(f"tenant-{index:03d}", _tenant_workflow(rng, index))
        )
        if index % 3 == 0:
            events.append(Tick())
    events.append(UndeployRequest("tenant-002"))
    events.append(UndeployRequest("tenant-005"))
    events.append(Tick())
    for index in range(9, 11):
        events.append(
            DeployRequest(f"tenant-{index:03d}", _tenant_workflow(rng, index))
        )
    events.append(Tick())
    config = FleetConfig(drift_threshold=0.3, seed=seed)
    return Scenario(
        name="steady",
        description="8 arrivals, 2 departures, periodic drift checks",
        network=network,
        config=config,
        events=tuple(events),
    )


def _build_churn(seed: int) -> Scenario:
    """Capacity-limited arrivals with failures and a late join."""
    rng = coerce_rng(seed)
    network = random_bus_network(
        8, seed=rng.randrange(2**31), name="fleet-churn"
    )
    events: list[FleetEvent] = []
    for index in range(1, 7):
        events.append(
            DeployRequest(f"tenant-{index:03d}", _tenant_workflow(rng, index))
        )
    events.append(Tick())
    events.append(ServerFailed("S3"))
    events.append(Tick())
    for index in range(7, 13):
        events.append(
            DeployRequest(f"tenant-{index:03d}", _tenant_workflow(rng, index))
        )
    events.append(ServerFailed("S6"))
    events.append(Tick())
    events.append(UndeployRequest("tenant-001"))
    events.append(UndeployRequest("tenant-004"))
    events.append(
        ServerJoined("S9", power_hz=2e9, link_speed_bps=100e6)
    )
    events.append(Tick())
    for index in range(13, 16):
        events.append(
            DeployRequest(f"tenant-{index:03d}", _tenant_workflow(rng, index))
        )
    events.append(Tick())
    # ~0.008 s of mean load per mid-size tenant on this fleet: a 0.05 s
    # cap admits roughly the first half dozen and rejects the overflow.
    # The tight drift threshold makes post-failure ticks rebalance.
    config = FleetConfig(
        admission_load_limit_s=0.05, drift_threshold=0.1, seed=seed
    )
    return Scenario(
        name="churn",
        description=(
            "capacity-limited arrivals, 2 failures, 1 join, departures"
        ),
        network=network,
        config=config,
        events=tuple(events),
    )


def _build_surge(seed: int) -> Scenario:
    """A 200-event trace over a 20-server fleet (benchmark scenario)."""
    rng = coerce_rng(seed)
    network = random_bus_network(
        20, seed=rng.randrange(2**31), name="fleet-surge"
    )
    events: list[FleetEvent] = []
    live: list[str] = []
    index = 0
    joined = 0
    failed = 0
    while len(events) < 200:
        position = len(events)
        if position % 10 == 9:
            events.append(Tick())
        elif position % 37 == 36 and failed < 3:
            failed += 1
            events.append(ServerFailed(f"S{2 * failed}"))
        elif position % 53 == 52 and joined < 3:
            joined += 1
            events.append(
                ServerJoined(
                    f"S{20 + joined}",
                    power_hz=2e9,
                    link_speed_bps=100e6,
                )
            )
        elif live and rng.random() < 0.18:
            events.append(UndeployRequest(live.pop(0)))
        else:
            index += 1
            tenant = f"tenant-{index:03d}"
            events.append(
                DeployRequest(
                    tenant, _tenant_workflow(rng, index, graph_share=0.2)
                )
            )
            live.append(tenant)
    config = FleetConfig(
        admission_load_limit_s=0.12,
        drift_threshold=0.3,
        max_moves_per_rebalance=3,
        seed=seed,
    )
    return Scenario(
        name="surge",
        description="200 events over a 20-server fleet (benchmark trace)",
        network=network,
        config=config,
        events=tuple(events),
    )


def _validated_amplitude(amplitude: float) -> float:
    """Shared bounds check for the drift helpers."""
    if not (math.isfinite(amplitude) and 0.0 <= amplitude < 1.0):
        raise ServiceError(
            f"drift amplitude must lie in [0, 1), got {amplitude!r}"
        )
    return amplitude


def drift_workflow(
    workflow: Workflow,
    rng: random.Random,
    amplitude: float,
    name: str | None = None,
) -> Workflow:
    """A shape-preserving drifted copy of *workflow*.

    Every message size is multiplied by a factor drawn uniformly from
    ``[1 - amplitude, 1 + amplitude]`` (floored at one bit), and each
    XOR split's branch probabilities are perturbed the same way and
    renormalised to sum to 1. Operation names, edges and cycle counts
    are untouched, so the result satisfies the
    :class:`~repro.service.events.WorkloadDrift` contract: the tenant's
    current placement stays valid and only the cost model changes.

    Deterministic in ``(workflow, rng state, amplitude)``; amplitude 0
    returns an exact copy *without drawing from the RNG*, so a
    zero-amplitude drift is a replay no-op.
    """
    _validated_amplitude(amplitude)
    clone = workflow.copy(name or workflow.name)
    if amplitude == 0.0:
        return clone
    for message in clone.messages:
        factor = 1.0 + amplitude * rng.uniform(-1.0, 1.0)
        clone.replace_message(
            replace(message, size_bits=max(1.0, message.size_bits * factor))
        )
    for operation in clone.operations:
        if operation.kind is not NodeKind.XOR_SPLIT:
            continue
        branches = clone.outgoing(operation.name)
        raw = [
            max(
                1e-6,
                m.probability * (1.0 + amplitude * rng.uniform(-1.0, 1.0)),
            )
            for m in branches
        ]
        total = ordered_sum(raw)
        for message, weight in zip(branches, raw):
            clone.replace_message(
                replace(message, probability=weight / total)
            )
    clone.validate_xor_probabilities()
    return clone


def wave_workflow(
    workflow: Workflow,
    factor: float,
    name: str | None = None,
) -> Workflow:
    """A traffic-wave copy of *workflow*: every message size x *factor*.

    The deterministic counterpart of :func:`drift_workflow` -- no RNG,
    no shape change, just a multiplicative rescale of every message
    size (floored at one bit). Applying it to the *same* base workflow
    with a time-varying factor produces diurnal traffic waves whose
    troughs return byte-exactly to the base sizes, which is what the
    ``diurnal`` scenario does. XOR probabilities, operation names,
    edges and cycle counts are untouched, so the result satisfies the
    :class:`~repro.service.events.WorkloadDrift` contract.
    """
    if not (math.isfinite(factor) and factor > 0.0):
        raise ServiceError(
            f"wave factor must be a finite positive number, got {factor!r}"
        )
    clone = workflow.copy(name or workflow.name)
    for message in clone.messages:
        clone.replace_message(
            replace(message, size_bits=max(1.0, message.size_bits * factor))
        )
    return clone


def drift_capacity(
    power_hz: float, rng: random.Random, amplitude: float
) -> float:
    """A drifted server power: multiplicative noise, floored at 1 MHz.

    Same contract as :func:`drift_workflow`: deterministic in the RNG
    state, and amplitude 0 returns *power_hz* unchanged without
    consuming randomness.
    """
    _validated_amplitude(amplitude)
    if amplitude == 0.0:
        return power_hz
    return max(1e6, power_hz * (1.0 + amplitude * rng.uniform(-1.0, 1.0)))


def _build_drift(seed: int) -> Scenario:
    """Six tenants under six rounds of cumulative parameter drift."""
    rng = coerce_rng(seed)
    network = random_bus_network(
        6, seed=rng.randrange(2**31), name="fleet-drift"
    )
    server_names = tuple(network.server_names)
    powers = {name: network.server(name).power_hz for name in server_names}
    workflows: dict[str, Workflow] = {}
    events: list[FleetEvent] = []
    for index in range(1, 7):
        tenant = f"tenant-{index:03d}"
        workflows[tenant] = _tenant_workflow(rng, index, graph_share=0.5)
        events.append(DeployRequest(tenant, workflows[tenant]))
    events.append(Tick())
    for round_index in range(6):
        # drift compounds: each round perturbs the previous round's
        # parameters, so the fleet's beliefs keep aging
        for tenant in sorted(workflows):
            workflows[tenant] = drift_workflow(
                workflows[tenant], rng, amplitude=0.25
            )
            events.append(WorkloadDrift(tenant, workflows[tenant]))
        if round_index % 2 == 1:
            server = server_names[rng.randrange(len(server_names))]
            powers[server] = drift_capacity(
                powers[server], rng, amplitude=0.3
            )
            events.append(CapacityDrift(server, powers[server]))
        events.append(Tick())
    # a hair-trigger rebalance threshold: without hysteresis the
    # controller chases every drifted estimate, which is exactly the
    # churn the migration-aware objective is meant to damp
    config = FleetConfig(
        drift_threshold=0.02, max_moves_per_rebalance=4, seed=seed
    )
    return Scenario(
        name="drift",
        description=(
            "6 tenants, 6 rounds of workload/capacity drift, "
            "tick rebalances on a hair trigger"
        ),
        network=network,
        config=config,
        events=tuple(events),
    )


def _build_abilene(seed: int) -> Scenario:
    """Tenants on the real Abilene backbone under link failures.

    The fleet is the bundled 12-PoP Abilene topology (sparse, genuinely
    multi-hop, heterogeneous propagation delays) with seeded per-node
    powers. Mid-trace, a core trunk browns out, a redundant western
    trunk dies outright, and a failure that would cut off the
    degree-one Atlanta M5 PoP is rejected -- exercising every branch of
    the link-event handlers plus the route-table invalidation path.
    """
    rng = coerce_rng(seed)
    network = abilene_network(name="fleet-abilene")
    for name in network.server_names:
        network.replace_server(Server(name, rng.uniform(1e9, 4e9)))
    events: list[FleetEvent] = []
    for index in range(1, 9):
        events.append(
            DeployRequest(f"tenant-{index:03d}", _tenant_workflow(rng, index))
        )
        if index % 4 == 0:
            events.append(Tick())
    # a core trunk browns out to a tenth of its speed
    events.append(LinkDegrade("IPLSng", "KSCYng", speed_factor=0.1))
    events.append(Tick())
    # a western trunk dies; Denver keeps two redundant paths
    events.append(LinkFailure("DNVRng", "SNVAng"))
    events.append(Tick())
    for index in range(9, 11):
        events.append(
            DeployRequest(f"tenant-{index:03d}", _tenant_workflow(rng, index))
        )
    # ATLAM5's only trunk: dropping it would partition -> rejected
    events.append(LinkFailure("ATLAM5", "ATLAng"))
    events.append(
        LinkDegrade(
            "HSTNng", "LOSAng", speed_factor=0.25, propagation_factor=1.5
        )
    )
    events.append(Tick())
    config = FleetConfig(
        drift_threshold=0.15, max_moves_per_rebalance=4, seed=seed
    )
    return Scenario(
        name="abilene",
        description=(
            "10 tenants on the Abilene backbone; trunk brownout, "
            "a link failure, and a rejected partition"
        ),
        network=network,
        config=config,
        events=tuple(events),
    )


def _build_geo(seed: int) -> Scenario:
    """A geo-region fleet losing a whole region mid-trace.

    Four cloud regions with two servers each (seeded powers and
    latency jitter); an inter-region backbone link degrades, then all
    of us-east -- the region hosting the bulk of the load -- goes dark
    at once and its orphans re-home fleet-wide. A
    region outage for an unknown region is rejected -- the graceful
    path for replays against shrunken fleets.
    """
    rng = coerce_rng(seed)
    network = random_geo_network(
        4,
        servers_per_region=2,
        seed=rng.randrange(2**31),
        name="fleet-geo",
    )
    events: list[FleetEvent] = []
    for index in range(1, 7):
        events.append(
            DeployRequest(f"tenant-{index:03d}", _tenant_workflow(rng, index))
        )
        if index % 3 == 0:
            events.append(Tick())
    # the transatlantic backbone congests to a fifth of its speed
    events.append(
        LinkDegrade("us-east/1", "eu-west/1", speed_factor=0.2)
    )
    events.append(Tick())
    events.append(RegionOutage("us-east"))
    events.append(Tick())
    for index in range(7, 9):
        events.append(
            DeployRequest(f"tenant-{index:03d}", _tenant_workflow(rng, index))
        )
    events.append(RegionOutage("mars"))  # unknown region -> rejected
    events.append(Tick())
    config = FleetConfig(
        drift_threshold=0.1, max_moves_per_rebalance=4, seed=seed
    )
    return Scenario(
        name="geo",
        description=(
            "6+2 tenants over 4 cloud regions; backbone degradation "
            "and a full us-east outage"
        ),
        network=network,
        config=config,
        events=tuple(events),
    )


def _build_diurnal(seed: int) -> Scenario:
    """Sinusoidal traffic waves with peak brownouts and trough recoveries.

    Six tenants on a three-region geo fleet, then sixteen rounds of a
    period-eight day: every round rescales each tenant's *base*
    workflow by ``1 + 0.6 * sin(2 * pi * round / 8)`` (the
    :func:`wave_workflow` diurnal wave) plus a light seeded jitter. At
    every peak the inter-region trunk slows to half speed -- a strict
    worsening -- and at every trough it doubles back to exactly its
    base speed (``(s * 0.5) * 2.0 == s`` in IEEE-754) -- an
    improvement. The trace therefore alternates both polarities of the
    route refresh while the load itself breathes.
    """
    rng = coerce_rng(seed)
    network = random_geo_network(
        3,
        servers_per_region=2,
        seed=rng.randrange(2**31),
        name="fleet-diurnal",
    )
    trunk = next(
        link
        for link in network.links
        if region_of(link.a) != region_of(link.b)
    )
    base: dict[str, Workflow] = {}
    events: list[FleetEvent] = []
    for index in range(1, 7):
        tenant = f"tenant-{index:03d}"
        base[tenant] = _tenant_workflow(rng, index, graph_share=0.4)
        events.append(DeployRequest(tenant, base[tenant]))
    events.append(Tick())
    period = 8
    for round_index in range(16):
        factor = 1.0 + 0.6 * math.sin(2 * math.pi * round_index / period)
        for tenant in sorted(base):
            waved = wave_workflow(base[tenant], factor)
            events.append(
                WorkloadDrift(
                    tenant, drift_workflow(waved, rng, amplitude=0.05)
                )
            )
        if round_index % period == 2:  # peak: trunk browns out (worsening)
            events.append(
                LinkDegrade(trunk.a, trunk.b, speed_factor=0.5)
            )
        elif round_index % period == 6:  # trough: trunk recovers (improvement)
            events.append(
                LinkDegrade(trunk.a, trunk.b, speed_factor=2.0)
            )
        events.append(Tick())
    config = FleetConfig(
        drift_threshold=0.1,
        max_moves_per_rebalance=4,
        rebalance_cooldown_ticks=1,
        seed=seed,
    )
    return Scenario(
        name="diurnal",
        description=(
            "6 tenants, 16 rounds of sinusoidal traffic waves; trunk "
            "brownouts at peaks, recoveries at troughs"
        ),
        network=network,
        config=config,
        events=tuple(events),
    )


_BUILTIN: dict[str, Callable[[int], Scenario]] = {
    "steady": _build_steady,
    "churn": _build_churn,
    "surge": _build_surge,
    "drift": _build_drift,
    "abilene": _build_abilene,
    "geo": _build_geo,
    "diurnal": _build_diurnal,
}


def builtin_scenarios() -> tuple[str, ...]:
    """Names of the builtin scenarios."""
    return tuple(_BUILTIN)


def build_scenario(
    name: str, seed: int = 0, algorithm: str | None = None
) -> Scenario:
    """Materialise the builtin scenario *name* from *seed*.

    *algorithm* overrides the scenario's default placement algorithm.
    """
    try:
        builder = _BUILTIN[name]
    except KeyError:
        known = ", ".join(sorted(_BUILTIN))
        raise ServiceError(
            f"unknown scenario {name!r}; builtin scenarios: {known}"
        ) from None
    scenario = builder(seed)
    if algorithm is not None:
        # dataclasses.replace keeps every other policy knob -- the old
        # field-by-field rebuild silently dropped newer config fields
        scenario = Scenario(
            name=scenario.name,
            description=scenario.description,
            network=scenario.network,
            config=replace(scenario.config, algorithm=algorithm),
            events=scenario.events,
        )
    return scenario


def replay(
    scenario: Scenario | str,
    seed: int = 0,
    algorithm: str | None = None,
    clock: Callable[[], float] | None = None,
) -> FleetController:
    """Run a scenario through a fresh controller; return the controller.

    Accepts a built :class:`Scenario` or a builtin name (built from
    *seed*). The default clock is a :class:`StepClock`, making the
    returned controller's log and metrics exact functions of
    ``(scenario, seed)`` -- pass :func:`time.perf_counter` for real
    latencies instead.
    """
    if isinstance(scenario, str):
        scenario = build_scenario(scenario, seed=seed, algorithm=algorithm)
    controller = FleetController(
        scenario.network,
        config=scenario.config,
        clock=clock if clock is not None else StepClock(),
    )
    controller.run(scenario.events)
    return controller
