"""Benchmark: batched route compilation and row-certified invalidation.

Three experiments over the routing layer (see DESIGN.md §15):

* **compile** -- filling the full all-pairs route table of a 50-server
  geo fleet (complete, heterogeneous graph) two ways: the per-pair
  oracle (:func:`tests.oracles.per_pair_routes`: every pair classified
  by its own targeted Dijkstra queries) versus
  :meth:`~repro.network.routing.Router.compile_all_pairs` (per-source
  sweeps plus the dense direct-dominance fast path). Both tables must
  be *byte-identical*; the compiled path must win on Dijkstra count
  (deterministic -- asserted even in smoke) and on wall clock
  (hardware-dependent -- asserted only in full runs, floor env-tunable
  via ``BENCH_FLOOR_ROUTING``).

* **invalidation** -- replaying the seeded ``abilene`` scenario with
  the fleet's in-place route refresh versus the rebuild oracle
  (:func:`tests.oracles.rebuild_routes_on_link_events`: every link
  event drops the router and every cost model, and routes refill pair
  by pair on demand) and summing the router's Dijkstra runs across the
  link events (brownouts/failures). The refresh re-runs only the
  single-source passes a changed link could alter, so it must spend at
  least ``BENCH_FLOOR_ROUTING_EVENTS`` times fewer runs per link event
  -- a deterministic, seeded count asserted even in smoke. The two
  replays' decision logs must match byte for byte (route maintenance
  must never change a decision). For scale, the arm also reports what
  one fresh ``compile_all_pairs`` per link event would cost (no floor).

* **restore** -- a seeded degrade-then-restore sequence on a sparse
  40-server fleet (random spanning tree plus extra links, 10M/100M/1G
  speeds): each round halves one link's speed and doubles another's
  propagation delay, then restores both exactly. Restores make links
  *better*, which used to force a full recompile. The Dijkstra runs of
  :meth:`~repro.network.routing.Router.invalidate` on the restoring
  events must be at least ``BENCH_FLOOR_ROUTING_RESTORE`` times fewer
  than one fresh ``compile_all_pairs`` per restoring event (a
  deterministic count, asserted even in smoke), and the refreshed
  table must equal the fresh one after every event.

* **one-shot deploys** -- the three greedy heuristics of the e2e
  ``deploy-greedy`` workload, each through its own
  ``CostModel(workflow, network)`` on one 12-server bus, as one-shot
  users deploy. The network does not change between them, so every
  cost model's router must hold the one snapshot of that network
  generation (an identity check, asserted even in smoke).

Results land in ``output/BENCH_routing.json``, with the host's CPU
count, Python and NumPy versions. ``BENCH_SMOKE=1`` runs the compile
arm on a smaller 20-server fleet and skips only the wall-clock floor.
"""

import os
import random
import time

from repro.core.clock import StepClock
from repro.core.cost import CostModel
from repro.network import apsp
from repro.network.routing import Router
from repro.network.topology import Link, random_network
from repro.parallel import deploy_parallel
from repro.scenarios import random_geo_network
from repro.service.controller import FleetController
from repro.service.scenarios import build_scenario
from repro.workloads.generator import (
    GraphStructure,
    random_bus_network,
    random_graph_workflow,
)
from tests.oracles import per_pair_routes, rebuild_routes_on_link_events

from _common import emit, host, perf_floor, write_json

SMOKE = os.environ.get("BENCH_SMOKE", "") not in ("", "0")

#: Compile arm: regions x servers-per-region of the geo fleet.
REGIONS = 5
SERVERS_PER_REGION = 4 if SMOKE else 10
SCENARIO = "abilene"
SEED = 0

#: Wall-clock floor for full-table compile vs lazy per-pair fill
#: (hardware-dependent; skipped in smoke, env-tunable, 0 disables).
COMPILE_WALL_FLOOR = perf_floor("ROUTING", 3.0)
#: Dijkstra-count floor for the same comparison (deterministic).
COMPILE_RUNS_FLOOR = perf_floor("ROUTING_RUNS", 5.0)
#: Per-link-event Dijkstra-count floor, scoped refresh vs the rebuild
#: oracle (deterministic: seeded replay, counted work).
EVENTS_RUNS_FLOOR = perf_floor("ROUTING_EVENTS", 5.0)
#: Restore arm: sparse fleet size and degrade/restore rounds.
RESTORE_SERVERS = 40
RESTORE_ROUNDS = 20
#: Dijkstra-count floor for restoring events, in-place refresh vs one
#: fresh compile per event (deterministic: seeded, counted work).
RESTORE_RUNS_FLOOR = perf_floor("ROUTING_RESTORE", 3.0)
#: One-shot arm: the greedy line-up and instance shape of the e2e
#: ``deploy-greedy`` workload.
ONESHOT_ALGORITHMS = ("HeavyOps-LargeMsgs", "FL-TieResolver2", "FL-MergeMsgEnds")
ONESHOT_OPERATIONS = 32
ONESHOT_SERVERS = 12

_RESULTS: dict = {
    "smoke": SMOKE,
    "regions": REGIONS,
    "servers_per_region": SERVERS_PER_REGION,
    "scenario": SCENARIO,
    "seed": SEED,
    "compile_wall_floor": COMPILE_WALL_FLOOR,
    "compile_runs_floor": COMPILE_RUNS_FLOOR,
    "events_runs_floor": EVENTS_RUNS_FLOOR,
    "restore_servers": RESTORE_SERVERS,
    "restore_rounds": RESTORE_ROUNDS,
    "restore_runs_floor": RESTORE_RUNS_FLOOR,
    "oneshot_algorithms": list(ONESHOT_ALGORITHMS),
    "oneshot_operations": ONESHOT_OPERATIONS,
    "oneshot_servers": ONESHOT_SERVERS,
    "host": host(),
}


def _flush_results() -> None:
    write_json("BENCH_routing", _RESULTS)


def _geo_network():
    return random_geo_network(
        REGIONS,
        servers_per_region=SERVERS_PER_REGION,
        seed=SEED,
        name="bench-routing",
    )


def _route_table(router: Router) -> list:
    """A copy of every route-table slot (coefficients or ``()``)."""
    return [list(row) for row in router.route_table()]


def _lazy_fill(network) -> tuple[Router, float]:
    """The per-pair oracle: classify every pair through its own queries."""
    router = Router(network)
    names = network.server_names
    with per_pair_routes():
        start = time.perf_counter()
        for a in names:
            for b in names:
                if a != b:
                    router.pair_coefficients(a, b)
        return router, time.perf_counter() - start


def _compiled_fill(network) -> tuple[Router, float]:
    router = Router(network)
    start = time.perf_counter()
    router.compile_all_pairs()
    return router, time.perf_counter() - start


def bench_routing_compile(benchmark):
    """Full-table compile vs lazy per-pair fill on a geo fleet."""
    network = _geo_network()
    servers = len(network.server_names)

    benchmark(lambda: _compiled_fill(_geo_network()))

    lazy_router, lazy_wall = _lazy_fill(_geo_network())
    compiled_router, compiled_wall = _compiled_fill(_geo_network())

    # exactness: both fills produce the identical route table
    assert _route_table(lazy_router) == _route_table(compiled_router), (
        "compile_all_pairs diverged from the per-pair lazy fill"
    )

    lazy_runs = lazy_router.dijkstra_runs
    compiled_runs = compiled_router.dijkstra_runs
    runs_ratio = (
        lazy_runs / compiled_runs if compiled_runs else float("inf")
    )
    wall_ratio = lazy_wall / compiled_wall if compiled_wall > 0 else float("inf")

    _RESULTS["compile_servers"] = servers
    _RESULTS["compile_lazy_runs"] = lazy_runs
    _RESULTS["compile_batched_runs"] = compiled_runs
    # None, not Infinity: the dense fast path can certify every row of
    # a complete graph, leaving zero runs -- keep the JSON standard
    _RESULTS["compile_runs_ratio"] = runs_ratio if compiled_runs else None
    _RESULTS["compile_lazy_wall_s"] = lazy_wall
    _RESULTS["compile_batched_wall_s"] = compiled_wall
    _RESULTS["compile_wall_ratio"] = wall_ratio
    _flush_results()

    emit(
        "routing_compile",
        f"{servers}-server geo fleet (seed {SEED})"
        + (" (smoke)" if SMOKE else ""),
        f"lazy per-pair fill:    {lazy_runs:6d} Dijkstra runs "
        f"{lazy_wall * 1e3:9.2f} ms",
        f"compile_all_pairs:     {compiled_runs:6d} Dijkstra runs "
        f"{compiled_wall * 1e3:9.2f} ms",
        f"Dijkstra-count ratio:  {runs_ratio:8.2f}x "
        f"(floor {COMPILE_RUNS_FLOOR:.2f})",
        f"wall-clock ratio:      {wall_ratio:8.2f}x "
        f"(floor {COMPILE_WALL_FLOOR:.2f}, "
        + ("not asserted in smoke)" if SMOKE else "asserted)"),
    )
    if COMPILE_RUNS_FLOOR > 0:
        assert runs_ratio >= COMPILE_RUNS_FLOOR, (
            f"batched compile saved too few Dijkstra runs: "
            f"{runs_ratio:.2f}x < floor {COMPILE_RUNS_FLOOR:.2f}x"
        )
    if not SMOKE and COMPILE_WALL_FLOOR > 0:
        assert wall_ratio >= COMPILE_WALL_FLOOR, (
            f"batched compile too slow: {wall_ratio:.2f}x < floor "
            f"{COMPILE_WALL_FLOOR:.2f}x"
        )


LINK_EVENTS = ("link-failed", "link-degraded")


def _replay_counting():
    """Replay abilene; per-link-event Dijkstra-run deltas.

    Also returns the runs one fresh ``compile_all_pairs`` on the
    post-event network would cost, summed over the link events.
    """
    scenario = build_scenario(SCENARIO, seed=SEED)
    controller = FleetController(
        scenario.network, config=scenario.config, clock=StepClock()
    )
    link_runs = 0
    link_events = 0
    compile_runs = 0
    for event in scenario.events:
        before = controller.state.router_dijkstra_runs
        controller.handle(event)
        if event.kind in LINK_EVENTS:
            link_runs += controller.state.router_dijkstra_runs - before
            link_events += 1
            fresh = Router(controller.state.network)
            fresh.compile_all_pairs()
            compile_runs += fresh.dijkstra_runs
    return controller, link_runs, link_events, compile_runs


def _replay_rebuilt():
    with rebuild_routes_on_link_events():
        return _replay_counting()


def bench_routing_invalidation(benchmark):
    """Dijkstra runs per link event: in-place refresh vs the rebuild oracle."""

    def run_both():
        return _replay_counting(), _replay_rebuilt()

    benchmark(run_both)

    (scoped, scoped_runs, events, compile_runs), (rebuilt, full_runs, _, _) = (
        run_both()
    )

    # route maintenance must never change a fleet decision
    assert scoped.log.to_text() == rebuilt.log.to_text(), (
        "in-place refresh and the rebuild oracle produced different "
        "decision logs"
    )

    ratio = full_runs / scoped_runs if scoped_runs else float("inf")
    scoped_metrics = scoped.metrics()

    _RESULTS["events_link_count"] = events
    _RESULTS["events_scoped_runs"] = scoped_runs
    _RESULTS["events_full_runs"] = full_runs
    _RESULTS["events_compile_runs"] = compile_runs
    _RESULTS["events_runs_ratio"] = ratio
    _RESULTS["events_scoped_total_runs"] = scoped_metrics.route_dijkstra_runs
    _RESULTS["events_pairs_invalidated"] = (
        scoped_metrics.route_pairs_invalidated
    )
    _RESULTS["events_pairs_recomputed"] = (
        scoped_metrics.route_pairs_recomputed
    )
    _flush_results()

    emit(
        "routing_invalidation",
        f"scenario {SCENARIO!r} (seed {SEED}), {events} link events"
        + (" (smoke)" if SMOKE else ""),
        f"rebuild oracle:        {full_runs:6d} Dijkstra runs on link events",
        f"fresh compile/event:   {compile_runs:6d} Dijkstra runs (no floor)",
        f"in-place refresh:      {scoped_runs:6d} Dijkstra runs on link "
        f"events ({scoped_metrics.route_pairs_invalidated} pairs "
        f"invalidated, {scoped_metrics.route_pairs_recomputed} recomputed)",
        f"per-event run ratio:   {ratio:8.2f}x "
        f"(floor {EVENTS_RUNS_FLOOR:.2f})",
    )
    if EVENTS_RUNS_FLOOR > 0:
        assert ratio >= EVENTS_RUNS_FLOOR, (
            f"in-place refresh saved too few Dijkstra runs: "
            f"{ratio:.2f}x < floor {EVENTS_RUNS_FLOOR:.2f}x"
        )


def _scale_link(network, link: Link, speed: float, propagation: float):
    network.replace_link(
        Link(
            link.a,
            link.b,
            link.speed_bps * speed,
            link.propagation_s * propagation,
        )
    )


def _degrade_restore() -> tuple[int, int, int]:
    """Seeded degrade-then-restore rounds on a sparse fleet.

    Returns ``(restoring events, refresh runs on them, fresh-compile
    runs on them)``; the refreshed table is checked against a fresh
    compile after every event.
    """
    rng = random.Random(SEED)
    network = random_network(
        [1e9] * RESTORE_SERVERS,
        (10e6, 100e6, 1e9),
        extra_edge_probability=0.08,
        rng=rng,
        propagation_s=1e-3,
        name="bench-restore",
    )
    router = Router(network)
    router.compile_all_pairs()
    events = refresh_runs = fresh_runs = 0
    for _ in range(RESTORE_ROUNDS):
        slowed, lagged = rng.sample(network.links, 2)
        for link, speed, propagation, restoring in (
            (slowed, 0.5, 1.0, False),
            (lagged, 1.0, 2.0, False),
            (slowed, 2.0, 1.0, True),
            (lagged, 1.0, 0.5, True),
        ):
            _scale_link(
                network, network.link(link.a, link.b), speed, propagation
            )
            before = router.dijkstra_runs
            router.invalidate()
            fresh = Router(network)
            fresh.compile_all_pairs()
            assert _route_table(router) == _route_table(fresh), (
                "in-place refresh diverged from a fresh compile"
            )
            if restoring:
                events += 1
                refresh_runs += router.dijkstra_runs - before
                fresh_runs += fresh.dijkstra_runs
    return events, refresh_runs, fresh_runs


def bench_routing_restore(benchmark):
    """Dijkstra runs per restoring link event: refresh vs fresh compile."""
    benchmark(_degrade_restore)
    events, refresh_runs, fresh_runs = _degrade_restore()
    ratio = fresh_runs / refresh_runs if refresh_runs else float("inf")

    _RESULTS["restore_events"] = events
    _RESULTS["restore_refresh_runs"] = refresh_runs
    _RESULTS["restore_compile_runs"] = fresh_runs
    _RESULTS["restore_runs_ratio"] = ratio if refresh_runs else None
    _flush_results()

    emit(
        "routing_restore",
        f"{RESTORE_SERVERS}-server sparse fleet (seed {SEED}), "
        f"{events} restoring link events",
        f"fresh compile/event:   {fresh_runs:6d} Dijkstra runs",
        f"in-place refresh:      {refresh_runs:6d} Dijkstra runs",
        f"per-event run ratio:   {ratio:8.2f}x "
        f"(floor {RESTORE_RUNS_FLOOR:.2f})",
    )
    if RESTORE_RUNS_FLOOR > 0:
        assert ratio >= RESTORE_RUNS_FLOOR, (
            f"restores saved too few Dijkstra runs: {ratio:.2f}x < floor "
            f"{RESTORE_RUNS_FLOOR:.2f}x"
        )


def _oneshot_deploys():
    """Each greedy heuristic through its own cost model; one network.

    Returns ``(network, routers, wall seconds)``.
    """
    workflow = random_graph_workflow(
        ONESHOT_OPERATIONS, GraphStructure.HYBRID, seed=SEED
    )
    network = random_bus_network(ONESHOT_SERVERS, seed=SEED)
    routers = []
    start = time.perf_counter()
    for name in ONESHOT_ALGORITHMS:
        model = CostModel(workflow, network)
        deploy_parallel(
            name, workflow, network, cost_model=model, workers=1, seed=SEED
        )
        routers.append(model.compiled.router)
    return network, routers, time.perf_counter() - start


def bench_routing_oneshot(benchmark):
    """Greedy one-shot deploys on one network share its route snapshot."""
    benchmark(_oneshot_deploys)
    network, routers, wall = _oneshot_deploys()
    # every deploy filled routes, so each router holds its snapshot
    snapshots = {id(router._compiled_graph()) for router in routers}
    runs = 0
    for router in routers:
        runs += router.dijkstra_runs

    _RESULTS["oneshot_deploys"] = len(routers)
    _RESULTS["oneshot_snapshots"] = len(snapshots)
    _RESULTS["oneshot_dijkstra_runs"] = runs
    _RESULTS["oneshot_wall_s"] = wall
    _flush_results()

    emit(
        "routing_oneshot",
        f"{len(routers)} greedy deploys, {ONESHOT_OPERATIONS} operations on "
        f"a {ONESHOT_SERVERS}-server bus (seed {SEED})",
        f"route snapshots:       {len(snapshots):6d} (one network generation)",
        f"Dijkstra runs:         {runs:6d}",
        f"wall clock:            {wall * 1e3:9.2f} ms (no floor)",
    )
    assert snapshots == {id(apsp.compile_graph(network))}, (
        f"{len(routers)} one-shot cost models on one network generation "
        f"hold {len(snapshots)} route snapshots, not its one"
    )
