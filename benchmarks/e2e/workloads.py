"""Seeded inputs and closed-loop drivers of the end-to-end workloads.

A workload is a sequence of *units*, each built from one instance seed
with the repository's public generators: one fleet lifecycle (surge,
links, recovery) or one generated instance placed by a line-up of
algorithms (deploy-greedy, deploy-search). A run with ``--seed S``
processes the units of instance seeds ``S, S+1, ...``, as many as
:meth:`Workload.units` gives for its length, so two runs of one seed
and length do exactly the same work whatever the host's speed. The
program only ever sees the generated inputs.

Each unit goes through four steps, and only ``run`` is timed or traced:

``make(instance)``
    Generate the unit's inputs from its instance seed.
``start(unit, workdir)``
    Build what serves it (controllers, queue): the set-up that
    ``setup_s`` times.
``run(unit, session)``
    The closed loop with one client: each event or deploy is issued
    only after the previous one returned, timed by a :class:`Meter`.
``finish(unit, session, result)``
    Read the decisions, objectives and counters, and run the
    correctness oracle of :mod:`check`.

A workload may also ``close`` the last unit's session once the loop is
over; the recovery workload restores its final checkpoint there.

Nothing here imports ``repro`` at module level: the runner re-imports
the package while it measures set-up, so every step imports what it
uses when it runs.
"""

from __future__ import annotations

import bisect
import random
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable

import check

#: The recovery workload writes a checkpoint after this many jobs.
CHECKPOINT_EVERY = 50

#: Size of the host-speed probe: integer-loop iterations, container items.
PROBE_ITERATIONS = 5_000
PROBE_ITEMS = 1_000
#: The probe's time on the quiet reference host: the first percentile
#: of 4000 back-to-back probes, 494 us, rounded, on a 2-vCPU Intel Xeon
#: VM with Python 3.11.7. Only a scale: every timing of both sides of a
#: comparison is divided by the same constant.
REFERENCE_PROBE_S = 500e-6
#: Longest stretch of timed work between two probes.
PROBE_EVERY_S = 0.02


def probe() -> float:
    """Seconds a fixed piece of pure-Python work takes right now.

    Integer arithmetic plus building, indexing and sorting small
    containers: together they track the workloads' slowdowns under
    host contention better than either alone.
    """
    start = time.perf_counter()
    total = 0
    for i in range(PROBE_ITERATIONS):
        total += i * i % 7
    items = [(i, i * 0.5, str(i)) for i in range(PROBE_ITEMS)]
    index = {key: text for key, _half, text in items}
    sorted(index, key=lambda key: -key)
    return time.perf_counter() - start


class Meter:
    """Times one unit's operations and probes the host between them.

    The host this benchmark runs on changes speed by up to 2x for
    seconds at a time, under load from its neighbours. A short probe
    loop runs before the first operation, after the last, and whenever
    :data:`PROBE_EVERY_S` of work has passed since the previous probe.
    Every stretch between two probes is then scaled by the reference
    probe time over the mean of its two probes, so :meth:`scaled`
    reports what the loop would have taken on the quiet reference host.
    Probe time is left out of the loop time.
    """

    def __init__(self) -> None:
        self.ops: list[tuple[float, float]] = []
        self.probes: list[tuple[float, float]] = []

    def __enter__(self) -> "Meter":
        self._probe()
        return self

    def __exit__(self, *exc_info) -> None:
        self._probe()

    def _probe(self) -> None:
        start = time.perf_counter()
        probe()
        self.probes.append((start, time.perf_counter()))

    def op(self, function: Callable, *args) -> Any:
        """Call ``function(*args)`` as one timed operation."""
        start = time.perf_counter()
        result = function(*args)
        end = time.perf_counter()
        self.ops.append((start, end))
        if end - self.probes[-1][1] >= PROBE_EVERY_S:
            self._probe()
        return result

    @property
    def loop_s(self) -> float:
        """Measured wall time of the loop, probes excluded."""
        return sum(
            after[0] - before[1]
            for before, after in zip(self.probes, self.probes[1:])
        )

    def scaled(self) -> tuple[list[float], float]:
        """Operation latencies and loop time at the reference host speed."""
        durations = [end - start for start, end in self.probes]
        factors = [
            2 * REFERENCE_PROBE_S / (a + b)
            for a, b in zip(durations, durations[1:])
        ]
        probe_ends = [end for _start, end in self.probes]
        latencies = [
            (end - start) * factors[bisect.bisect_right(probe_ends, start) - 1]
            for start, end in self.ops
        ]
        loop_s = sum(
            (after[0] - before[1]) * factor
            for before, after, factor in zip(
                self.probes, self.probes[1:], factors
            )
        )
        return latencies, loop_s


@dataclass
class UnitResult:
    """What one unit did; ``run`` fills the timings, ``finish`` the rest.

    Attributes
    ----------
    ops:
        Operations issued (fleet events, or deploys).
    meter:
        The loop's timings: completed operations and host probes.
    failed, errors:
        Operations that raised or whose queue job failed, and why.
    samples:
        Other raw timings by name (``checkpoint_s``, ``restore_s``).
    decisions:
        Canonical text of every decision, hashed into the run's digest.
    objectives:
        Final fleet objective, or one objective per deploy.
    counters:
        Deterministic work counters read from public attributes.
    problems:
        Correctness-oracle failures, one line each.
    """

    ops: int = 0
    meter: Meter = field(default_factory=Meter)
    failed: int = 0
    errors: list[str] = field(default_factory=list)
    samples: dict[str, list[float]] = field(default_factory=dict)
    decisions: str = ""
    objectives: list[float] = field(default_factory=list)
    counters: dict[str, int] = field(default_factory=dict)
    problems: list[str] = field(default_factory=list)


@dataclass(frozen=True)
class Workload:
    """One named workload: its unit steps and how its metrics read.

    Attributes
    ----------
    name:
        The name used on the command line.
    unit_s:
        Wall seconds one unit takes, inputs and oracle included, on the
        2-vCPU host the baseline was measured on. It turns a run length
        into a fixed number of units, so the work never depends on how
        fast the host or the program is on the day.
    tail:
        The latency percentile reported as ``op_tail_ms``. It lies
        inside the workload's heaviest class of operations, with at
        least ten samples beyond it at the benchmark's run length, and
        below the percentiles where repeats of one seed differed by
        more than 5% because host preemptions set the value.
    close:
        Optional last step, given the last unit's session and result.
    length:
        How many times ``--seconds`` of units a run processes. Units
        differ from one instance seed to the next -- surge scenarios by
        23% in throughput, links fleets by 13% in median latency -- so
        those two run three and two times as many to average it out;
        deploy-greedy's 3 ms units do so in half the time.
    """

    name: str
    unit_s: float
    tail: int
    make: Callable[[int], Any]
    start: Callable[[Any, Path], Any]
    run: Callable[[Any, Any], UnitResult]
    finish: Callable[[Any, Any, UnitResult], None]
    close: Callable[[Any, UnitResult], None] | None = None
    length: float = 1.0

    def units(self, seconds: float) -> int:
        """How many units a run of *seconds* processes (at least one)."""
        return max(1, round(seconds * self.length / self.unit_s))


# ----------------------------------------------------------------------
# shared fleet steps
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class FleetUnit:
    """A fleet lifecycle: initial network, config and event rounds.

    The recovery workload submits each round to the queue together;
    surge and links hand every event straight to the controller.
    """

    network: Any
    config: Any
    rounds: tuple[tuple[Any, ...], ...]


def _fleet_start(unit: FleetUnit, workdir: Path):
    from repro.core.clock import StepClock
    from repro.service.controller import FleetController

    # a step clock keeps the decision log a pure function of the inputs
    return FleetController(unit.network, config=unit.config, clock=StepClock())


def _replay(unit: FleetUnit, controller) -> UnitResult:
    """Hand every event to ``FleetController.handle``, one at a time."""
    result = UnitResult()
    with result.meter as meter:
        for batch in unit.rounds:
            for event in batch:
                result.ops += 1
                try:
                    meter.op(controller.handle, event)
                except Exception as exc:  # a failed event ends the unit
                    result.failed += 1
                    result.errors.append(f"{event.kind} raised {exc!r}")
                    return result
    return result


def _fleet_finish(unit, controller, result: UnitResult) -> None:
    state = controller.state
    result.decisions = controller.log.to_text()
    result.objectives = [controller.snapshot().objective]
    result.counters = {
        "events": len(controller.log),
        "evaluations": controller.evaluations,
        "dijkstra_runs": state.router_dijkstra_runs,
        "pairs_invalidated": state.router_pairs_invalidated,
        "pairs_recomputed": state.router_pairs_recomputed,
        "router_hits": state.router_hits,
        "router_misses": state.router_misses,
        "cost_model_hits": state.cost_model_hits,
        "cost_model_misses": state.cost_model_misses,
    }
    result.problems.extend(check.check_fleet(controller))


def _arrivals(rng: random.Random, count: int) -> list:
    """*count* tenants, each a 6-14 op line or (30%) hybrid graph."""
    from repro.service.events import DeployRequest
    from repro.workloads.generator import (
        GraphStructure,
        line_workflow,
        random_graph_workflow,
    )

    events = []
    for index in range(1, count + 1):
        tenant = f"tenant-{index:03d}"
        size = rng.randint(6, 14)
        seed = rng.randrange(2**31)
        if rng.random() < 0.3:
            workflow = random_graph_workflow(
                size, GraphStructure.HYBRID, seed=seed, name=f"{tenant}-graph"
            )
        else:
            workflow = line_workflow(size, seed=seed, name=f"{tenant}-line")
        events.append(DeployRequest(tenant, workflow))
    return events


# ----------------------------------------------------------------------
# surge: the builtin benchmark trace
# ----------------------------------------------------------------------
def _surge_make(instance: int) -> FleetUnit:
    """The builtin 200-event ``surge`` scenario of seed *instance*."""
    from repro.service.scenarios import build_scenario

    scenario = build_scenario("surge", seed=instance)
    return FleetUnit(
        scenario.network,
        scenario.config,
        tuple((event,) for event in scenario.events),
    )


# ----------------------------------------------------------------------
# links: routing under link churn on a sparse fleet
# ----------------------------------------------------------------------
LINKS_SERVERS = 40
LINKS_TENANTS = 12
LINKS_ROUNDS = 10


def _links_make(instance: int) -> FleetUnit:
    """40 servers, 12 tenants, 10 rounds of degrade/tick/restore.

    The fleet is a random spanning tree plus 8% extra links (speeds
    10M/100M/1G bps, 1 ms propagation). Each round slows one link to
    half speed and doubles another's propagation delay (strict
    worsenings: the scoped invalidation path), ticks, then restores
    both exactly (improvements: the full recompile path). The tenth
    round also fails a link whose loss keeps the fleet connected.
    """
    import networkx as nx

    from repro.network.topology import random_network
    from repro.service.controller import FleetConfig
    from repro.service.events import LinkDegrade, LinkFailure, Tick

    rng = random.Random(f"links:{instance}")
    network = random_network(
        [rng.choice((1e9, 2e9, 3e9)) for _ in range(LINKS_SERVERS)],
        (10e6, 100e6, 1e9),
        extra_edge_probability=0.08,
        rng=rng,
        propagation_s=1e-3,
        name="e2e-links",
    )
    rounds: list[tuple] = [(event,) for event in _arrivals(rng, LINKS_TENANTS)]
    graph = nx.Graph([(link.a, link.b) for link in network.links])
    for index in range(LINKS_ROUNDS):
        links = sorted(tuple(sorted(edge)) for edge in graph.edges)
        (a1, b1), (a2, b2) = rng.sample(links, 2)
        events = [
            LinkDegrade(a1, b1, speed_factor=0.5),
            LinkDegrade(a2, b2, speed_factor=1.0, propagation_factor=2.0),
            Tick(),
            LinkDegrade(a1, b1, speed_factor=2.0),
            LinkDegrade(a2, b2, speed_factor=1.0, propagation_factor=0.5),
        ]
        if index % 10 == 9:
            bridges = {tuple(sorted(edge)) for edge in nx.bridges(graph)}
            a, b = rng.choice([edge for edge in links if edge not in bridges])
            graph.remove_edge(a, b)
            events.append(LinkFailure(a, b))
        rounds.extend((event,) for event in events)
    config = FleetConfig(
        drift_threshold=0.3, max_moves_per_rebalance=3, seed=instance
    )
    return FleetUnit(network, config, tuple(rounds))


# ----------------------------------------------------------------------
# recovery: failures and joins through the queue, with checkpoints
# ----------------------------------------------------------------------
RECOVERY_SERVERS = 16
RECOVERY_TENANTS = 12
RECOVERY_ROUNDS = 35


def _recovery_make(instance: int) -> FleetUnit:
    """16-server bus, 12 tenants, then 35 rounds of failed, tick,
    joined, capacity drift, tick."""
    from repro.service.controller import FleetConfig
    from repro.service.events import (
        CapacityDrift,
        ServerFailed,
        ServerJoined,
        Tick,
    )
    from repro.service.scenarios import drift_capacity
    from repro.workloads.generator import random_bus_network

    rng = random.Random(f"recovery:{instance}")
    network = random_bus_network(
        RECOVERY_SERVERS, seed=rng.randrange(2**31), name="e2e-recovery"
    )
    speed = network.links[0].speed_bps
    powers = {server.name: server.power_hz for server in network}
    rounds: list[tuple] = [tuple(_arrivals(rng, RECOVERY_TENANTS))]
    for index in range(RECOVERY_ROUNDS):
        failed = rng.choice(sorted(powers))
        del powers[failed]
        joined = f"J{index:02d}"
        powers[joined] = rng.choice((1e9, 2e9, 3e9))
        drifted = rng.choice(sorted(powers))
        powers[drifted] = drift_capacity(powers[drifted], rng, 0.3)
        rounds.append(
            (
                ServerFailed(failed),
                Tick(),
                ServerJoined(joined, powers[joined], speed),
                CapacityDrift(drifted, powers[drifted]),
                Tick(),
            )
        )
    config = FleetConfig(
        drift_threshold=0.2, max_moves_per_rebalance=3, seed=instance
    )
    return FleetUnit(network, config, tuple(rounds))


@dataclass
class RecoverySession:
    service: Any
    checkpoint: Path


def _recovery_start(unit: FleetUnit, workdir: Path) -> RecoverySession:
    from repro.service.queue import FleetService

    return RecoverySession(
        FleetService(_fleet_start(unit, workdir)),
        workdir / "checkpoint-recovery.json",
    )


def _recovery_run(unit: FleetUnit, session: RecoverySession) -> UnitResult:
    """Submit each round, drain it, checkpoint every 50 jobs and at the end."""
    from repro.service import checkpoint

    service = session.service
    controller = service.controller
    result = UnitResult()
    written = result.samples.setdefault("checkpoint_s", [])
    with result.meter as meter:
        for batch in unit.rounds:
            for event in batch:
                service.submit(event)
            for _ in batch:  # one job per submitted event
                result.ops += 1
                try:
                    job = meter.op(service.process_next)
                except Exception as exc:  # a crashed worker ends the unit
                    result.failed += 1
                    result.errors.append(f"queue worker raised {exc!r}")
                    return result
                if job.state == "failed":
                    result.failed += 1
                    result.errors.append(f"job {job.kind} failed: {job.error}")
                if result.ops % CHECKPOINT_EVERY == 0:
                    start = time.perf_counter()
                    checkpoint.write_checkpoint(
                        controller,
                        session.checkpoint,
                        pending=[
                            (queued.event, queued.priority)
                            for queued in service.queue.queued()
                        ],
                    )
                    written.append(time.perf_counter() - start)
        start = time.perf_counter()
        checkpoint.write_checkpoint(controller, session.checkpoint)
        written.append(time.perf_counter() - start)
    return result


def _recovery_finish(unit, session: RecoverySession, result) -> None:
    _fleet_finish(unit, session.service.controller, result)


def _recovery_close(session: RecoverySession, result: UnitResult) -> None:
    """Restore the last unit's final checkpoint, verified, as ``restore_s``."""
    from repro.service import checkpoint

    start = time.perf_counter()
    restored, pending = checkpoint.restore_controller(session.checkpoint)
    result.samples["restore_s"] = [time.perf_counter() - start]
    if pending or restored.log.to_text() != session.service.controller.log.to_text():
        result.problems.append("restored controller diverged from the run")
    session.checkpoint.unlink()


# ----------------------------------------------------------------------
# deploy: one generated instance, a line-up of algorithms
# ----------------------------------------------------------------------
DEPLOY_OPERATIONS = 32
DEPLOY_SERVERS = 12
GREEDY = ("HeavyOps-LargeMsgs", "FL-TieResolver2", "FL-MergeMsgEnds")
SEARCH = ("HillClimbing@FL-TieResolver2", "SimulatedAnnealing", "Genetic")


@dataclass(frozen=True)
class DeployUnit:
    workflow: Any
    network: Any
    algorithms: tuple[str, ...]
    seed: int


def _deploy_maker(label: str, algorithms: tuple[str, ...]):
    def make(instance: int) -> DeployUnit:
        """A 32-op line (even *instance*) or hybrid graph, 12-server bus."""
        from repro.workloads import ClassCParameters
        from repro.workloads.generator import (
            GraphStructure,
            line_workflow,
            random_bus_network,
            random_graph_workflow,
        )

        rng = random.Random(f"{label}:{instance}")
        workflow_seed = rng.randrange(2**31)
        if instance % 2 == 0:
            workflow = line_workflow(DEPLOY_OPERATIONS, seed=workflow_seed)
        else:
            workflow = random_graph_workflow(
                DEPLOY_OPERATIONS, GraphStructure.HYBRID, seed=workflow_seed
            )
        network = random_bus_network(
            DEPLOY_SERVERS,
            seed=rng.randrange(2**31),
            parameters=ClassCParameters.paper().with_fixed_bus_speed(100e6),
            name="e2e-deploy",
        )
        return DeployUnit(workflow, network, algorithms, rng.randrange(2**31))

    return make


def _deploy_start(unit: DeployUnit, workdir: Path) -> list:
    return []  # (algorithm, outcome) pairs, filled by the run


def _deploy_one(unit: DeployUnit, name: str):
    """One user request: build the cost model, run ``deploy_parallel``."""
    from repro.core.cost import CostModel
    from repro.parallel import api

    model = CostModel(unit.workflow, unit.network)
    return api.deploy_parallel(
        name,
        unit.workflow,
        unit.network,
        cost_model=model,
        workers=1,
        seed=unit.seed,
    )


def _deploy_run(unit: DeployUnit, outcomes: list) -> UnitResult:
    result = UnitResult()
    with result.meter as meter:
        for name in unit.algorithms:
            result.ops += 1
            try:
                outcomes.append((name, meter.op(_deploy_one, unit, name)))
            except Exception as exc:
                result.failed += 1
                result.errors.append(f"{name} raised {exc!r}")
    return result


def _deploy_finish(unit: DeployUnit, outcomes: list, result) -> None:
    lines = []
    evaluations = 0
    for name, outcome in outcomes:
        placement = " ".join(
            f"{op}={server}" for op, server in sorted(outcome.best.as_dict().items())
        )
        lines.append(f"{name} {outcome.best_value!r} {placement}\n")
        result.objectives.append(outcome.best_value)
        evaluations += outcome.parallel.evaluations
    result.problems.extend(
        check.check_deploys(
            unit.workflow,
            unit.network,
            [(outcome.best, outcome.best_value) for _name, outcome in outcomes],
        )
    )
    result.decisions = "".join(lines)
    result.counters = {"deploys": len(outcomes), "evaluations": evaluations}


WORKLOADS: dict[str, Workload] = {
    workload.name: workload
    for workload in (
        Workload(
            name="surge",
            unit_s=0.9,
            tail=99,
            make=_surge_make,
            start=_fleet_start,
            run=_replay,
            finish=_fleet_finish,
            length=3.0,
        ),
        Workload(
            name="links",
            unit_s=1.1,
            tail=98,
            make=_links_make,
            start=_fleet_start,
            run=_replay,
            finish=_fleet_finish,
            length=2.0,
        ),
        Workload(
            name="recovery",
            unit_s=2.0,
            tail=95,
            make=_recovery_make,
            start=_recovery_start,
            run=_recovery_run,
            finish=_recovery_finish,
            close=_recovery_close,
        ),
        Workload(
            name="deploy-greedy",
            unit_s=0.021,
            tail=95,
            make=_deploy_maker("deploy-greedy", GREEDY),
            start=_deploy_start,
            run=_deploy_run,
            finish=_deploy_finish,
            length=0.5,
        ),
        Workload(
            name="deploy-search",
            unit_s=0.28,
            tail=90,
            make=_deploy_maker("deploy-search", SEARCH),
            start=_deploy_start,
            run=_deploy_run,
            finish=_deploy_finish,
        ),
    )
}
