"""Benchmark: batched deployment scoring vs the scalar paths.

The batch kernel's two hot call shapes, timed against the scalar code
they replace on the reference 20-operation x 10-server instance:

* **GA generation** -- scoring a population of K genomes: one
  :class:`~repro.core.batch.BatchEvaluator` call vs a per-genome loop
  that translates server names to indices and calls
  :meth:`~repro.core.compiled.CompiledInstance.components` (the
  acceptance floor is 5x for K >= 64);
* **neighbourhood sweep** -- scoring all ``M x (S - 1)`` single-op
  moves of a hill-climbing round: one ``MoveEvaluator.scan`` call
  (the kernel's forward pass over the move grid) vs the per-move
  ``MoveEvaluator.propose_value`` scan.

Both checks assert the vectorised scores are bit-identical to the
scalar ones before timing anything (for the sweep this holds by
construction: ``scan`` is the exact twin of ``propose_value``).
Results land in the perf trajectory file ``output/BENCH_batch.json``
(plus the usual text tables).

Set ``BENCH_SMOKE=1`` to shrink the instance and repeat count for CI
smoke runs; the speedup floor is only asserted on the full instance.
"""

import os
import random
import time

import pytest

from repro.core.cost import CostModel
from repro.core.incremental import MoveEvaluator
from repro.core.mapping import Deployment
from repro.workloads.generator import (
    GraphStructure,
    random_bus_network,
    random_graph_workflow,
)

from _common import emit, host, write_json

SMOKE = os.environ.get("BENCH_SMOKE", "") not in ("", "0")

#: Reference instance from the issue: 20 operations on 10 servers.
NUM_OPERATIONS = 6 if SMOKE else 20
NUM_SERVERS = 3 if SMOKE else 10
REPEATS = 1 if SMOKE else 5
#: Population sizes timed for the GA-generation shape; the speedup
#: floor applies from 64 up.
POPULATION_SIZES = (16, 64) if SMOKE else (64, 256, 1024)
SPEEDUP_FLOOR = 5.0
FLOOR_POPULATION = 64

#: Perf-trajectory payload, accumulated across the bench functions and
#: rewritten after each (so a partial run still leaves valid JSON).
_TRAJECTORY = {
    "host": host(),
    "instance": {
        "operations": NUM_OPERATIONS,
        "servers": NUM_SERVERS,
        "smoke": SMOKE,
    },
    "speedup_floor": SPEEDUP_FLOOR,
}


@pytest.fixture(scope="module")
def instance():
    workflow = random_graph_workflow(
        NUM_OPERATIONS, GraphStructure.HYBRID, seed=17
    )
    network = random_bus_network(NUM_SERVERS, seed=18)
    return workflow, network, CostModel(workflow, network)


def _best_time(fn, repeats=REPEATS):
    best = float("inf")
    result = None
    for _ in range(repeats):
        start = time.perf_counter()
        result = fn()
        best = min(best, time.perf_counter() - start)
    return best, result


def _random_population(workflow, network, size, seed):
    rng = random.Random(seed)
    servers = network.server_names
    return [
        tuple(rng.choice(servers) for _ in workflow.operation_names)
        for _ in range(size)
    ]


def bench_ga_generation_scoring(benchmark, instance):
    """One GA generation: kernel call vs per-genome components loop."""
    workflow, network, model = instance
    compiled = model.compiled
    server_index = compiled.server_index
    batch = compiled.batch_evaluator()
    lines = [
        f"instance: {NUM_OPERATIONS} operations x {NUM_SERVERS} servers"
        + (" (smoke)" if SMOKE else "")
    ]
    results = {}
    floor_speedup = None
    for size in POPULATION_SIZES:
        population = _random_population(workflow, network, size, seed=41)
        indexed = batch.index_batch(population)

        def score_scalar(population=population):
            # genomes follow the workflow's operation order, which is the
            # compiled operation order
            return [
                compiled.components([server_index[name] for name in genome])[2]
                for genome in population
            ]

        def score_batch(indexed=indexed):
            return batch.evaluate(indexed).objective

        # parity first: the kernel must reproduce the scalar floats
        scalar_scores = score_scalar()
        batch_scores = score_batch()
        assert list(batch_scores) == scalar_scores
        t_scalar, _ = _best_time(score_scalar)
        t_batch, _ = _best_time(score_batch)
        speedup = t_scalar / t_batch if t_batch > 0 else float("inf")
        if size >= FLOOR_POPULATION and floor_speedup is None:
            floor_speedup = speedup
        results[str(size)] = {
            "scalar_ms": t_scalar * 1e3,
            "batch_ms": t_batch * 1e3,
            "speedup": speedup,
        }
        lines.append(
            f"K={size:5d}: scalar {t_scalar * 1e3:9.3f} ms, "
            f"batch {t_batch * 1e3:9.3f} ms, speedup {speedup:6.1f}x"
        )
    lines.append(
        f"floor: {SPEEDUP_FLOOR}x at K>={FLOOR_POPULATION} "
        f"(asserted on the full instance only)"
    )
    emit("batch_eval_ga_generation", *lines)
    _TRAJECTORY["ga_generation"] = results
    write_json("BENCH_batch", _TRAJECTORY)
    if not SMOKE:
        assert floor_speedup is not None
        assert floor_speedup >= SPEEDUP_FLOOR
    population = _random_population(
        workflow, network, FLOOR_POPULATION, seed=41
    )
    indexed = batch.index_batch(population)
    benchmark(lambda: batch.evaluate(indexed))


def bench_neighborhood_sweep_scoring(benchmark, instance):
    """One hill-climbing round: MoveEvaluator.scan vs propose_value."""
    workflow, network, model = instance
    deployment = Deployment.random(workflow, network, random.Random(29))
    compiled = model.compiled
    evaluator = MoveEvaluator(model, deployment)
    servers = compiled.server_vector(deployment)
    operations = workflow.operation_names
    server_names = network.server_names

    def sweep_scalar():
        values = []
        for operation in operations:
            original = deployment.server_of(operation)
            for server in server_names:
                if server == original:
                    continue
                values.append(evaluator.propose_value(operation, server))
        return values

    def sweep_scan():
        return evaluator.scan()

    # parity: the scan entries that encode real moves must match the
    # scalar proposals (entry op*S + s is operation op onto server s)
    scalar_values = sweep_scalar()
    scan_values = sweep_scan()
    expected = iter(scalar_values)
    for op in range(compiled.num_ops):
        for s in range(compiled.num_servers):
            if s == servers[op]:
                continue
            assert scan_values[op * compiled.num_servers + s] == next(expected)

    t_scalar, _ = _best_time(sweep_scalar)
    t_scan, _ = _best_time(sweep_scan)
    moves = compiled.num_ops * (compiled.num_servers - 1)
    speedup = t_scalar / t_scan if t_scan > 0 else float("inf")
    emit(
        "batch_eval_neighborhood",
        f"{moves} moves per sweep on {NUM_OPERATIONS} operations x "
        f"{NUM_SERVERS} servers" + (" (smoke)" if SMOKE else ""),
        f"scalar propose_value sweep:  {t_scalar * 1e3:10.3f} ms",
        f"MoveEvaluator.scan:          {t_scan * 1e3:10.3f} ms",
        f"speedup: {speedup:.1f}x",
    )
    _TRAJECTORY["neighborhood_sweep"] = {
        "moves": moves,
        "scalar_ms": t_scalar * 1e3,
        "scan_ms": t_scan * 1e3,
        "speedup": speedup,
    }
    write_json("BENCH_batch", _TRAJECTORY)
    benchmark(sweep_scan)
