"""Benchmark: SearchRuntime driver overhead vs the pre-refactor loops.

Every iterative algorithm now runs as a step generator under
:class:`~repro.algorithms.runtime.SearchRuntime` -- one driver owning
incumbent tracking and budgets. The refactor's
perf bargain is that the driver costs (almost) nothing when no budget
binds. This bench replays the *pre-refactor* hand-rolled loops of hill
climbing (full and incremental pricing) and simulated annealing
verbatim, times them against the runtime-driven algorithms with the
same seeds on the 20-operation x 10-server reference instance, checks
the deployments are identical, and asserts the aggregate overhead stays
under 5%.

Simulated annealing is the worst case -- ~2000 steps of microsecond
work, so the per-step driver cost (one ``SearchStep`` plus a generator
resume) is maximally visible; the climbers amortise the driver over a
full neighbourhood scan per step. Per-algorithm numbers are emitted for
context, the floor is asserted on the suite total (and only on the full
instance: set ``BENCH_SMOKE=1`` for the CI smoke run, which shrinks the
instance and skips the floor while keeping the parity checks).
"""

import math
import os
import random
import time

import pytest

from repro.algorithms.local_search import HillClimbing, SimulatedAnnealing
from repro.core.cost import CostModel
from repro.core.incremental import MoveEvaluator
from repro.core.mapping import Deployment
from repro.workloads.generator import (
    GraphStructure,
    random_bus_network,
    random_graph_workflow,
)
from tests.oracles import FullEvaluationHillClimbing

from _common import emit

SMOKE = os.environ.get("BENCH_SMOKE", "") not in ("", "0")

#: Reference instance: 20 operations on 10 servers.
NUM_OPERATIONS = 6 if SMOKE else 20
NUM_SERVERS = 3 if SMOKE else 10
REPEATS = 1 if SMOKE else 9
SA_STEPS = 100 if SMOKE else 2_000
HC_ITERATIONS = 20 if SMOKE else 200
OVERHEAD_CEILING = 0.05


@pytest.fixture(scope="module")
def instance():
    workflow = random_graph_workflow(
        NUM_OPERATIONS, GraphStructure.HYBRID, seed=17
    )
    network = random_bus_network(NUM_SERVERS, seed=18)
    return workflow, network, CostModel(workflow, network)


# ----------------------------------------------------------------------
# the pre-refactor loops, replayed verbatim
# ----------------------------------------------------------------------
def _legacy_hill_climbing_full(instance, rng):
    workflow, network, model = instance
    current = Deployment.random(workflow, network, rng)
    current_value = model.objective(current)
    for _ in range(HC_ITERATIONS):
        best_move = None
        best_value = current_value
        for operation in workflow.operation_names:
            original = current.server_of(operation)
            for server in network.server_names:
                if server == original:
                    continue
                current.assign(operation, server)
                value = model.objective(current)
                if value < best_value:
                    best_value = value
                    best_move = (operation, server)
            current.assign(operation, original)
        if best_move is None:
            break
        current.assign(*best_move)
        current_value = best_value
    return current


def _legacy_hill_climbing_incremental(instance, rng):
    workflow, network, model = instance
    current = Deployment.random(workflow, network, rng)
    evaluator = MoveEvaluator(model, current)
    for _ in range(HC_ITERATIONS):
        best_move = None
        best_value = evaluator.objective
        for operation in workflow.operation_names:
            original = current.server_of(operation)
            for server in network.server_names:
                if server == original:
                    continue
                value = evaluator.propose_value(operation, server)
                if value < best_value:
                    best_value = value
                    best_move = (operation, server)
        if best_move is None:
            break
        evaluator.apply(*best_move)
    return current


def _legacy_annealing_incremental(
    instance, rng, initial_temperature=0.5, cooling=0.995
):
    workflow, network, model = instance
    current = Deployment.random(workflow, network, rng)
    operations = workflow.operation_names
    servers = network.server_names
    evaluator = MoveEvaluator(model, current)
    best = current.copy()
    best_value = evaluator.objective
    temperature = initial_temperature * max(evaluator.objective, 1e-12)
    for _ in range(SA_STEPS):
        operation = rng.choice(operations)
        original = current.server_of(operation)
        alternatives = [s for s in servers if s != original]
        server = rng.choice(alternatives)
        outcome = evaluator.propose(operation, server)
        delta = outcome.delta
        if delta <= 0 or rng.random() < math.exp(-delta / temperature):
            evaluator.commit()
            if outcome.objective < best_value:
                best_value = outcome.objective
                best = current.copy()
        temperature *= cooling
    return best


CASES = [
    (
        "hill climbing, full pricing",
        _legacy_hill_climbing_full,
        lambda: FullEvaluationHillClimbing(max_iterations=HC_ITERATIONS),
    ),
    (
        "hill climbing, incremental",
        _legacy_hill_climbing_incremental,
        lambda: HillClimbing(max_iterations=HC_ITERATIONS),
    ),
    (
        "simulated annealing",
        _legacy_annealing_incremental,
        lambda: SimulatedAnnealing(steps=SA_STEPS),
    ),
]


def _best_time(fn, repeats=REPEATS):
    best = float("inf")
    result = None
    for _ in range(repeats):
        start = time.perf_counter()
        result = fn()
        best = min(best, time.perf_counter() - start)
    return best, result


def bench_runtime_driver_overhead(benchmark, instance):
    """Pre-refactor loops vs runtime-driven searches, same seeds."""
    workflow, network, model = instance
    lines = [
        f"instance: {NUM_OPERATIONS} operations x {NUM_SERVERS} servers"
        + (" (smoke)" if SMOKE else "")
    ]
    total_legacy = total_driven = 0.0
    for label, legacy, make_algorithm in CASES:
        algorithm = make_algorithm()
        t_legacy, legacy_result = _best_time(
            lambda: legacy(instance, random.Random(23))
        )
        t_driven, driven_result = _best_time(
            lambda: algorithm.deploy(
                workflow, network, cost_model=model, rng=random.Random(23)
            )
        )
        # the runtime owns the loop now, but the search is the same:
        # identical seeded deployments out
        assert driven_result.as_dict() == legacy_result.as_dict()
        overhead = t_driven / t_legacy - 1.0 if t_legacy > 0 else 0.0
        total_legacy += t_legacy
        total_driven += t_driven
        lines.append(
            f"{label:32s} legacy {t_legacy * 1e3:8.3f} ms   "
            f"runtime {t_driven * 1e3:8.3f} ms   "
            f"overhead {overhead * 100:+6.2f}%"
        )
    total = total_driven / total_legacy - 1.0 if total_legacy > 0 else 0.0
    lines.append(
        f"{'suite total':32s} legacy {total_legacy * 1e3:8.3f} ms   "
        f"runtime {total_driven * 1e3:8.3f} ms   "
        f"overhead {total * 100:+6.2f}%  "
        f"(ceiling on the full instance: {OVERHEAD_CEILING:.0%})"
    )
    emit("runtime_overhead", *lines)
    if not SMOKE:
        assert total < OVERHEAD_CEILING
    algorithm = SimulatedAnnealing(steps=SA_STEPS)
    benchmark(
        algorithm.deploy,
        workflow,
        network,
        cost_model=model,
        rng=random.Random(23),
    )
