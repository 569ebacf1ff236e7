"""Empirical validation of the section 3.3 complexity claims.

The paper states Fair Load is ``O(M logM + N logN + MN)`` and the other
Line--Bus variants ``O(M (M logM + N logN + MN))`` (with MN -> 1 for
HOLM). This bench measures wall-clock deploy time across M at fixed N
and reports the growth ratio per doubling -- near 2x indicates the
quasi-linear family, near 4x the quadratic one. (pytest-benchmark times
each point; the summary table shows the shape.)

Both tables are wall-clock figures, so they are printed and recorded in
``output/BENCH_complexity.json`` with the host, like every other timed
``BENCH_*.json``, not next to the deterministic figure records.
"""

import random
import time

from repro.algorithms.base import algorithm_registry
from repro.core.cost import CostModel
from repro.core.mapping import Deployment
from repro.numeric import ordered_sum
from repro.tables import TextTable
from repro.workloads.generator import line_workflow, random_bus_network

from _common import host, write_json

SIZES = (25, 50, 100, 200)
SUITE = (
    "FairLoad",
    "FL-TieResolver",
    "FL-TieResolver2",
    "FL-MergeMsgEnds",
    "HeavyOps-LargeMsgs",
)
SERVERS = 5

#: The record, rewritten after each bench function (so a partial run
#: still leaves valid JSON).
_RECORD = {"host": host(), "operations": list(SIZES), "servers": SERVERS}


def bench_deploy_time_growth(benchmark):
    registry = algorithm_registry()

    def measure():
        timings: dict[str, list[float]] = {name: [] for name in SUITE}
        for operations in SIZES:
            workflow = line_workflow(operations, seed=1)
            network = random_bus_network(SERVERS, seed=2)
            model = CostModel(workflow, network)
            for name in SUITE:
                algorithm = registry[name]()
                start = time.perf_counter()
                algorithm.deploy(workflow, network, cost_model=model, rng=0)
                timings[name].append(time.perf_counter() - start)
        return timings

    timings = benchmark.pedantic(measure, rounds=1, iterations=1)
    table = TextTable(
        ["algorithm", *(f"M={m}" for m in SIZES), "ratio/doubling"],
        title=f"deploy wall time vs M (N={SERVERS}); the paper's complexity shapes",
    )
    growth = {}
    for name in SUITE:
        values = timings[name]
        ratios = [
            values[i + 1] / values[i]
            for i in range(len(values) - 1)
            if values[i] > 0
        ]
        mean_ratio = (
            ordered_sum(ratios) / len(ratios) if ratios else float("nan")
        )
        table.add_row(
            [
                name,
                *(f"{v * 1e3:.2f}ms" for v in values),
                f"{mean_ratio:.1f}x",
            ]
        )
        growth[name] = {
            "deploy_ms": [v * 1e3 for v in values],
            "ratio_per_doubling": mean_ratio,
        }
    print(f"\n{table}")
    _RECORD["deploy_growth"] = growth
    write_json("BENCH_complexity", _RECORD)


def bench_cost_evaluation_scaling(benchmark):
    """Cost of one evaluate() as M grows (the quality protocol's unit)."""

    def measure():
        rows = []
        for operations in SIZES:
            workflow = line_workflow(operations, seed=3)
            network = random_bus_network(SERVERS, seed=4)
            model = CostModel(workflow, network)
            deployment = Deployment.random(workflow, network, random.Random(5))
            start = time.perf_counter()
            iterations = 50
            for _ in range(iterations):
                model.evaluate(deployment)
            rows.append(
                (operations, (time.perf_counter() - start) / iterations)
            )
        return rows

    rows = benchmark.pedantic(measure, rounds=1, iterations=1)
    table = TextTable(
        ["M", "evaluate() time"],
        title=f"cost evaluation scaling (line workflows, N={SERVERS})",
    )
    for operations, seconds in rows:
        table.add_row([operations, f"{seconds * 1e6:.0f}us"])
    print(f"\n{table}")
    _RECORD["evaluate_us"] = [seconds * 1e6 for _, seconds in rows]
    write_json("BENCH_complexity", _RECORD)
