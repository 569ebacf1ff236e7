"""Benchmark: incremental move pricing vs full re-evaluation.

The hill climber scans ``M x (N - 1)`` candidate moves per round; with
full evaluation each candidate costs a complete cost-model sweep, while
:class:`~repro.core.incremental.MoveEvaluator` prices it from the dirty
region alone. This bench times both code paths of the *same* algorithm
on the reference 20-operation x 10-server instance -- the full pricing
through :class:`tests.oracles.FullEvaluationHillClimbing`, which runs
the same search loop -- checks they return the identical deployment,
and records the speedup.

A second row times one hill-climbing round's neighbourhood: a single
:meth:`~repro.core.incremental.MoveEvaluator.scan` call vs the
per-move ``propose_value`` loop it replaces (same floats, checked
before timing).

The asserted floors default to 2x (search) and 4x (scan) --
conservative enough to pass on modest shared CI hardware -- and are
env-tunable via ``BENCH_FLOOR_MOVE_EVAL`` / ``BENCH_FLOOR_MOVE_SCAN``
(set a higher bar on dedicated perf boxes, or ``0`` for
measurement-only). The measured speedups are always recorded in
``output/move_eval_speedup.json``.

Set ``BENCH_SMOKE=1`` to shrink the instance and repeat count for CI
smoke runs; the speedup floor is only asserted on the full instance.
"""

import os
import random
import time

import pytest

from repro.algorithms.local_search import HillClimbing
from repro.core.cost import CostModel
from repro.core.incremental import MoveEvaluator
from repro.core.mapping import Deployment
from repro.workloads.generator import (
    GraphStructure,
    random_bus_network,
    random_graph_workflow,
)
from tests.oracles import FullEvaluationHillClimbing

from _common import emit, perf_floor, write_json

SMOKE = os.environ.get("BENCH_SMOKE", "") not in ("", "0")

#: Reference instance from the issue: 20 operations on 10 servers.
NUM_OPERATIONS = 6 if SMOKE else 20
NUM_SERVERS = 3 if SMOKE else 10
REPEATS = 1 if SMOKE else 5
PROPOSE_ROUNDS = 50 if SMOKE else 2_000
SPEEDUP_FLOOR = perf_floor("MOVE_EVAL", 2.0)
#: One MoveEvaluator.scan vs the per-move propose_value loop it replaces.
SCAN_SPEEDUP_FLOOR = perf_floor("MOVE_SCAN", 4.0)


#: The ``move_eval_speedup.json`` payload, accumulated across benches.
_RESULTS: dict = {}


@pytest.fixture(scope="module")
def instance():
    workflow = random_graph_workflow(
        NUM_OPERATIONS, GraphStructure.HYBRID, seed=17
    )
    network = random_bus_network(NUM_SERVERS, seed=18)
    return workflow, network, CostModel(workflow, network)


def _run_hill_climbing(instance, algorithm_class):
    workflow, network, model = instance
    return algorithm_class().deploy(
        workflow, network, cost_model=model, rng=random.Random(23)
    )


def _best_time(fn, repeats=REPEATS):
    best = float("inf")
    result = None
    for _ in range(repeats):
        start = time.perf_counter()
        result = fn()
        best = min(best, time.perf_counter() - start)
    return best, result


def bench_hill_climbing_speedup(benchmark, instance):
    """Same seeded search, incremental vs full pricing."""
    t_full, full_result = _best_time(
        lambda: _run_hill_climbing(instance, FullEvaluationHillClimbing)
    )
    t_incremental, incremental_result = _best_time(
        lambda: _run_hill_climbing(instance, HillClimbing)
    )
    # the rewiring is purely a pricing change: identical deployments out
    assert incremental_result.as_dict() == full_result.as_dict()
    speedup = t_full / t_incremental if t_incremental > 0 else float("inf")
    emit(
        "move_eval_speedup",
        f"instance: {NUM_OPERATIONS} operations x {NUM_SERVERS} servers"
        + (" (smoke)" if SMOKE else ""),
        f"hill climbing, full evaluation:  {t_full * 1e3:10.3f} ms",
        f"hill climbing, incremental:      {t_incremental * 1e3:10.3f} ms",
        f"speedup: {speedup:.1f}x (floor on the full instance: "
        f"{SPEEDUP_FLOOR}x)",
    )
    _RESULTS.update(
        {
            "smoke": SMOKE,
            "operations": NUM_OPERATIONS,
            "servers": NUM_SERVERS,
            "full_s": t_full,
            "incremental_s": t_incremental,
            "speedup": speedup,
            "floor": SPEEDUP_FLOOR,
        }
    )
    write_json("move_eval_speedup", _RESULTS)
    if not SMOKE:
        assert speedup >= SPEEDUP_FLOOR
    benchmark(_run_hill_climbing, instance, HillClimbing)


def bench_propose_vs_full_evaluation(benchmark, instance):
    """Per-move cost: MoveEvaluator.propose vs copy + CostModel.evaluate."""
    workflow, network, model = instance
    deployment = Deployment.random(workflow, network, random.Random(29))
    evaluator = MoveEvaluator(model, deployment)
    rng = random.Random(31)
    moves = [
        (rng.choice(workflow.operation_names), rng.choice(network.server_names))
        for _ in range(PROPOSE_ROUNDS)
    ]

    def price_full():
        for operation, server in moves:
            trial = deployment.copy()
            trial.assign(operation, server)
            model.evaluate(trial)

    def price_incremental():
        for operation, server in moves:
            evaluator.propose(operation, server)

    t_full, _ = _best_time(price_full)
    t_incremental, _ = _best_time(price_incremental)
    per_move_full = t_full / len(moves) * 1e6
    per_move_incremental = t_incremental / len(moves) * 1e6
    speedup = t_full / t_incremental if t_incremental > 0 else float("inf")
    emit(
        "move_eval_per_move",
        f"{len(moves)} priced moves on {NUM_OPERATIONS} operations x "
        f"{NUM_SERVERS} servers" + (" (smoke)" if SMOKE else ""),
        f"full evaluation per move:  {per_move_full:10.2f} us",
        f"incremental per move:      {per_move_incremental:10.2f} us",
        f"speedup: {speedup:.1f}x",
    )
    benchmark(price_incremental)


def bench_scan_vs_per_move(benchmark, instance):
    """One neighbourhood: MoveEvaluator.scan vs per-move propose_value."""
    workflow, network, model = instance
    deployment = Deployment.random(workflow, network, random.Random(37))
    evaluator = MoveEvaluator(model, deployment)
    operations = workflow.operation_names
    servers = network.server_names

    def per_move():
        return [
            evaluator.propose_value(operation, server)
            for operation in operations
            for server in servers
        ]

    # the scan is the exact twin of propose_value, no-op entries included
    assert evaluator.scan().tolist() == per_move()
    t_per_move, _ = _best_time(per_move)
    t_scan, _ = _best_time(evaluator.scan)
    moves = len(operations) * (len(servers) - 1)
    speedup = t_per_move / t_scan if t_scan > 0 else float("inf")
    emit(
        "move_eval_scan",
        f"{moves} moves per neighbourhood on {NUM_OPERATIONS} operations x "
        f"{NUM_SERVERS} servers" + (" (smoke)" if SMOKE else ""),
        f"per-move propose_value:  {t_per_move * 1e3:10.3f} ms",
        f"MoveEvaluator.scan:      {t_scan * 1e3:10.3f} ms",
        f"speedup: {speedup:.1f}x (floor on the full instance: "
        f"{SCAN_SPEEDUP_FLOOR}x)",
    )
    _RESULTS["scan"] = {
        "moves": moves,
        "per_move_s": t_per_move,
        "scan_s": t_scan,
        "speedup": speedup,
        "floor": SCAN_SPEEDUP_FLOOR,
    }
    write_json("move_eval_speedup", _RESULTS)
    if not SMOKE:
        assert speedup >= SCAN_SPEEDUP_FLOOR
    benchmark(evaluator.scan)
