"""Fleet-controller throughput benchmark.

Replays the built-in ``surge`` scenario -- 200 events against a 20-server
fleet -- through :class:`~repro.service.controller.FleetController` and
reports sustained events/second together with the router and cost-model
cache hit rates. The numbers land in
``benchmarks/output/fleet_throughput.txt``.

A second, counted replay of the same seed records the deterministic
work behind those figures in ``benchmarks/output/BENCH_fleet.json``:
full workflow compiles (:class:`~repro.core.compiled.CompiledWorkflow`
builds), topology rebinds (:meth:`CompiledInstance.rebind
<repro.core.compiled.CompiledInstance.rebind>` after a server change),
dense route-table reads (:class:`~repro.core.batch.DenseRoutes` builds
and refreshes), router hits and tenant price hits/misses
(:meth:`FleetState.price <repro.service.state.FleetState.price>`),
plus the host (``cpu_count``, Python, NumPy). It asserts the floor the
two-halves compile layout guarantees: a workflow is compiled once per
admission attempt and once per workload drift, never per server change
or per tenant. A counted replay of the link-event ``abilene`` scenario
records the same counters under ``"abilene"``: there a price miss after
a link event means a tenant's routes moved.
"""

import os
import platform
import time
from unittest import mock

import numpy

from repro.core.batch import DenseRoutes
from repro.core.compiled import CompiledInstance, CompiledWorkflow
from repro.service.scenarios import build_scenario, replay
from repro.tables import TextTable

from _common import emit, write_json

SEED = 7


def _replay_surge():
    controller = replay("surge", seed=SEED)
    return controller


def _counted_replay(scenario="surge"):
    """Replay *scenario* with the compile/rebind/route-read calls counted."""
    counts = {"workflow_compiles": 0, "topology_rebinds": 0, "dense_route_reads": 0}

    def counting(key, function):
        def counted(*args, **kwargs):
            counts[key] += 1
            return function(*args, **kwargs)

        return counted

    with mock.patch.object(
        CompiledWorkflow,
        "__init__",
        counting("workflow_compiles", CompiledWorkflow.__init__),
    ), mock.patch.object(
        CompiledInstance,
        "rebind",
        counting("topology_rebinds", CompiledInstance.rebind),
    ), mock.patch.object(
        DenseRoutes, "_read", counting("dense_route_reads", DenseRoutes._read)
    ):
        controller = replay(scenario, seed=SEED)
    return controller, counts


def _state_counters(state):
    """The fleet state's own deterministic work counters."""
    return {
        "router_hits": state.router_hits,
        "router_misses": state.router_misses,
        "dijkstra_runs": state.router_dijkstra_runs,
        "cost_model_hits": state.cost_model_hits,
        "cost_model_misses": state.cost_model_misses,
        "price_hits": state.price_hits,
        "price_misses": state.price_misses,
    }


def bench_fleet_surge_throughput(benchmark):
    controller = benchmark(_replay_surge)
    metrics = controller.metrics()
    assert metrics.events == 200

    # a separate timed pass for the headline events/sec figure (the
    # pytest-benchmark stats time the same callable with warmup)
    start = time.perf_counter()
    fresh = replay("surge", seed=SEED)
    elapsed = time.perf_counter() - start
    fresh_metrics = fresh.metrics()

    scenario = build_scenario("surge", seed=SEED)
    table = TextTable(
        ["metric", "value"], title="fleet surge throughput (seed 7)"
    )
    table.add_row(["servers (initial)", len(scenario.network)])
    table.add_row(["events", fresh_metrics.events])
    table.add_row(["elapsed", f"{elapsed:.3f} s"])
    table.add_row(["events/sec", f"{fresh_metrics.events / elapsed:.1f}"])
    table.add_row(["admitted", fresh_metrics.admitted])
    table.add_row(["rejected", fresh_metrics.rejected])
    table.add_row(["rebalances", fresh_metrics.rebalances])
    table.add_row(
        [
            "cost-model hit rate",
            f"{fresh_metrics.cost_model_hit_rate:.3f}",
        ]
    )
    table.add_row(
        ["placement evaluations", fresh_metrics.placement_evaluations]
    )
    emit("fleet_throughput", table)

    # caching sanity: with batch candidate pricing (the default) route
    # pairs are materialised into the kernel's delay matrices instead of
    # being queried per message, so the *cost-model* cache is the hot path
    assert fresh_metrics.cost_model_hit_rate > 0.5


def bench_fleet_surge_work_counters(benchmark):
    controller, counts = benchmark.pedantic(_counted_replay, rounds=1)
    log = list(controller.log)
    # every deploy request that is not a duplicate prices its workflow
    admissions = sum(
        1
        for record in log
        if record.event == "deploy"
        and dict(record.details).get("reason") != "duplicate-tenant"
    )
    drifts = sum(
        1
        for record in log
        if record.event == "workload-drift" and record.action == "drifted"
    )
    server_changes = sum(
        1
        for record in log
        if record.event in ("server-failed", "server-joined", "capacity-drift")
        and record.action != "rejected"
    )
    links, link_counts = _counted_replay("abilene")
    link_events = sum(
        1 for record in links.log if record.event.startswith("link-")
    )
    payload = {
        "scenario": "surge",
        "seed": SEED,
        "events": len(log),
        "admissions": admissions,
        "workload_drifts": drifts,
        "server_changes": server_changes,
        **counts,
        **_state_counters(controller.state),
        "abilene": {
            "events": len(links.log),
            "link_events": link_events,
            **link_counts,
            **_state_counters(links.state),
            "route_pairs_invalidated": links.state.router_pairs_invalidated,
            "route_pairs_recomputed": links.state.router_pairs_recomputed,
        },
        "host": {
            "cpu_count": os.cpu_count(),
            "python": platform.python_version(),
            "numpy": numpy.__version__,
        },
    }
    write_json("BENCH_fleet", payload)
    table = TextTable(["counter", "value"], title="fleet surge work (seed 7)")
    for key in (
        "admissions",
        "workload_drifts",
        "server_changes",
        "workflow_compiles",
        "topology_rebinds",
        "dense_route_reads",
        "router_hits",
        "price_hits",
        "price_misses",
    ):
        table.add_row([key, payload[key]])
    for key in ("link_events", "price_hits", "price_misses"):
        table.add_row([f"abilene {key}", payload["abilene"][key]])
    emit("fleet_work", table)

    # deterministic floor: no server change or tenant count recompiles
    # a workflow, and the route table is read densely at most once per
    # router (the initial one plus one per server change)
    assert counts["workflow_compiles"] == admissions + drifts
    assert counts["dense_route_reads"] <= server_changes + 1
