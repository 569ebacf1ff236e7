"""Benchmark: the multiprocess restart & portfolio runtime.

Three measurements on the 100-operation x 50-server scaling instance
(the parallel layer's reference size):

* **GA restarts throughput scaling** -- generations/second of seeded
  genetic-search restarts at 1 worker vs ``SCALE_WORKERS`` workers.
  On a multi-core box the acceptance floor is >= 2.5x at 4 workers
  (env-tunable via ``BENCH_FLOOR_PARALLEL_GA``); on machines with fewer
  cores than ``SCALE_WORKERS`` the assertion is skipped -- there is no
  parallel hardware to measure -- but both throughputs are still
  recorded in ``output/BENCH_parallel.json``. Next to them it records
  one serial GA run given ``SCALE_WORKERS`` times the generations
  (about the restarts' total evaluations): its wall time and best
  objective against the restarts' own.
* **Portfolio race** -- wall-clock and winner of the default portfolio
  under one evaluation budget, sliced across the racers, run inline vs
  the process pool; the two must elect the same winner with the same
  best value and evaluations.
* **workers=1 byte-identity** -- the ``deploy_parallel(workers=1)``
  escape hatch produces the same deployment and report as the direct
  serial ``deploy_with_report`` call, for every wrapped algorithm
  family (asserted here so the contract is re-checked on every bench
  run, smoke included).

Set ``BENCH_SMOKE=1`` for the CI smoke run: a small instance, 2
workers, few generations -- it exercises the process pool and the
identity checks without asserting the scaling floor.
"""

import dataclasses
import os
import time

import pytest

from repro.algorithms.runtime import SearchBudget
from repro.core.cost import CostModel
from repro.core.rng import coerce_rng
from repro.parallel import deploy_parallel, race_portfolio
from repro.parallel.specs import AlgorithmSpec
from repro.workloads.generator import (
    GraphStructure,
    random_bus_network,
    random_graph_workflow,
)

from _common import emit, host, perf_floor, write_json

SMOKE = os.environ.get("BENCH_SMOKE", "") not in ("", "0")

#: Scaling reference instance: 100 operations on 50 servers.
NUM_OPERATIONS = 12 if SMOKE else 100
NUM_SERVERS = 5 if SMOKE else 50
GENERATIONS = 6 if SMOKE else 40
POPULATION = 12 if SMOKE else 30
SCALE_WORKERS = 2 if SMOKE else 4
PORTFOLIO_EVALS = 2_000 if SMOKE else 20_000

#: GA generations/sec floor at SCALE_WORKERS vs 1 worker, asserted only
#: when the machine actually has that many cores (and not in smoke).
GA_SCALING_FLOOR = perf_floor("PARALLEL_GA", 2.5)

_RESULTS: dict = {
    "smoke": SMOKE,
    "operations": NUM_OPERATIONS,
    "servers": NUM_SERVERS,
    "host": host(),
    "scale_workers": SCALE_WORKERS,
    "ga_scaling_floor": GA_SCALING_FLOOR,
}


@pytest.fixture(scope="module")
def instance():
    workflow = random_graph_workflow(
        NUM_OPERATIONS, GraphStructure.HYBRID, seed=101
    )
    network = random_bus_network(NUM_SERVERS, seed=102)
    return workflow, network, CostModel(workflow, network)


def _flush_results() -> None:
    write_json("BENCH_parallel", _RESULTS)


def bench_ga_restarts_scaling(benchmark, instance):
    """GA generations/sec: 1 worker vs SCALE_WORKERS seeded restarts,
    plus a serial GA given the restarts' total generations."""
    workflow, network, model = instance

    def ga(generations: int) -> AlgorithmSpec:
        return AlgorithmSpec.of(
            "Genetic", generations=generations, population_size=POPULATION
        )

    def run(workers: int):
        start = time.perf_counter()
        outcome = deploy_parallel(
            ga(GENERATIONS),
            workflow,
            network,
            cost_model=model,
            workers=workers,
            seed=7,
        )
        elapsed = time.perf_counter() - start
        assert outcome.best_value > 0
        return outcome, elapsed

    # build the shared model's batch evaluator before any arm is timed,
    # so the 1-worker arm and the serial GA below both run warm
    model.compiled.batch_evaluator()
    _, serial_s = run(1)
    parallel_outcome, parallel_s = run(SCALE_WORKERS)
    # every restart evolves GENERATIONS generations; throughput is
    # total generations evolved across the workers per second
    serial_gps = GENERATIONS / serial_s
    parallel_gps = GENERATIONS * SCALE_WORKERS / parallel_s
    scaling = parallel_gps / serial_gps if serial_gps > 0 else float("inf")
    cores = os.cpu_count() or 1
    enough_cores = cores >= SCALE_WORKERS

    # the equal-evaluation baseline: one serial GA evolving as many
    # generations as all the restarts together
    start = time.perf_counter()
    long_outcome = deploy_parallel(
        ga(GENERATIONS * SCALE_WORKERS),
        workflow,
        network,
        cost_model=model,
        workers=1,
        seed=7,
    )
    long_s = time.perf_counter() - start

    _RESULTS["ga_generations_per_s_1w"] = serial_gps
    _RESULTS[f"ga_generations_per_s_{SCALE_WORKERS}w"] = parallel_gps
    _RESULTS["ga_scaling"] = scaling
    _RESULTS["ga_scaling_asserted"] = bool(not SMOKE and enough_cores)
    _RESULTS["ga_restarts_s"] = parallel_s
    _RESULTS["ga_restarts_evaluations"] = parallel_outcome.report.evaluations
    _RESULTS["ga_restarts_best_value"] = parallel_outcome.best_value
    _RESULTS["ga_serial_long_generations"] = GENERATIONS * SCALE_WORKERS
    _RESULTS["ga_serial_long_s"] = long_s
    _RESULTS["ga_serial_long_evaluations"] = long_outcome.report.evaluations
    _RESULTS["ga_serial_long_best_value"] = long_outcome.best_value
    _flush_results()
    emit(
        "parallel_ga_scaling",
        f"instance: {NUM_OPERATIONS} operations x {NUM_SERVERS} servers"
        + (" (smoke)" if SMOKE else ""),
        f"GA generations/sec, 1 worker:            {serial_gps:10.2f}",
        f"GA generations/sec, {SCALE_WORKERS} restart workers:  "
        f"{parallel_gps:10.2f}",
        f"scaling: {scaling:.2f}x (floor {GA_SCALING_FLOOR}x, "
        f"{cores} cores available"
        + ("" if enough_cores else " -- assertion skipped")
        + ")",
        f"{SCALE_WORKERS} restarts x {GENERATIONS} generations: "
        f"{parallel_s:.3f} s, best {parallel_outcome.best_value:.6g} "
        f"({parallel_outcome.report.evaluations} evaluations)",
        f"serial GA, {GENERATIONS * SCALE_WORKERS} generations: "
        f"{long_s:.3f} s, best {long_outcome.best_value:.6g} "
        f"({long_outcome.report.evaluations} evaluations)",
    )
    if not SMOKE and enough_cores:
        assert scaling >= GA_SCALING_FLOOR
    benchmark(run, SCALE_WORKERS)


def bench_portfolio_race(benchmark, instance):
    """Default-portfolio race under one sliced evaluation budget."""
    workflow, network, model = instance
    budget = SearchBudget(max_evals=PORTFOLIO_EVALS)

    def run(inline: bool):
        start = time.perf_counter()
        outcome = race_portfolio(
            workflow,
            network,
            cost_model=model,
            workers=SCALE_WORKERS,
            seed=11,
            budget=budget,
            inline=inline,
        )
        return outcome, time.perf_counter() - start

    serial_outcome, serial_s = run(inline=True)
    parallel_outcome, parallel_s = run(inline=False)
    # every racer is a solo run under its budget slice, so the pool and
    # the sequential execution give the same race: winner, best value
    # and evaluations
    winner = serial_outcome.parallel.runs[serial_outcome.parallel.winner]
    pool_winner = parallel_outcome.parallel.runs[
        parallel_outcome.parallel.winner
    ]
    assert pool_winner.label == winner.label
    assert parallel_outcome.best_value == serial_outcome.best_value
    assert (
        parallel_outcome.report.evaluations
        == serial_outcome.report.evaluations
    )
    assert (
        parallel_outcome.best.as_dict() == serial_outcome.best.as_dict()
    )
    _RESULTS["portfolio_evals"] = PORTFOLIO_EVALS
    _RESULTS["portfolio_serial_s"] = serial_s
    _RESULTS["portfolio_parallel_s"] = parallel_s
    _RESULTS["portfolio_winner"] = winner.label
    _RESULTS["portfolio_best_value"] = serial_outcome.best_value
    _RESULTS["portfolio_evaluations"] = serial_outcome.report.evaluations
    _flush_results()
    emit(
        "parallel_portfolio",
        f"portfolio of {len(serial_outcome.parallel.runs)} racers, "
        f"{PORTFOLIO_EVALS} evaluations"
        + (" (smoke)" if SMOKE else ""),
        f"sequential (inline):  {serial_s * 1e3:10.1f} ms",
        f"{SCALE_WORKERS}-worker pool:        {parallel_s * 1e3:10.1f} ms",
        f"winner: {winner.label} (objective {serial_outcome.best_value:.6g})",
    )
    benchmark(run, False)


def bench_workers1_identity(benchmark, instance):
    """deploy_parallel(workers=1) == the direct serial call, per family."""
    workflow, network, model = instance
    specs = (
        "HillClimbing@HeavyOps-LargeMsgs",
        "SimulatedAnnealing",
        "Genetic",
        "HeavyOps-LargeMsgs",
    )

    def check_all():
        for text in specs:
            spec = AlgorithmSpec.parse(text)
            outcome = deploy_parallel(
                spec, workflow, network, cost_model=model, workers=1, seed=3
            )
            deployment, report = spec.build().deploy_with_report(
                workflow, network, cost_model=model, rng=coerce_rng(3)
            )
            assert outcome.best.as_dict() == deployment.as_dict(), text
            if report is None:
                assert outcome.report is None, text
            else:
                assert dataclasses.replace(
                    outcome.report, elapsed_s=0.0
                ) == dataclasses.replace(report, elapsed_s=0.0), text

    check_all()
    _RESULTS["workers1_identity"] = list(specs)
    _flush_results()
    emit(
        "parallel_workers1_identity",
        "workers=1 byte-identity verified for: " + ", ".join(specs),
    )
    benchmark(check_all)
