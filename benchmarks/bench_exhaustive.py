"""Section 3.1 -- the exhaustive algorithm and its N**M wall.

Times full enumeration as M grows (N = 3), demonstrating the exponential
blow-up that motivates the heuristics, and measures the heuristics'
optimality gap on instances where the optimum is still computable.
"""

import pytest

from repro.algorithms.base import algorithm_registry
from repro.algorithms.exhaustive import Exhaustive
from repro.core.cost import CostModel
from repro.numeric import ordered_sum
from repro.tables import TextTable
from repro.workloads.generator import line_workflow, random_bus_network

from _common import emit


@pytest.mark.parametrize("operations", (4, 6, 8))
def bench_exhaustive_enumeration(benchmark, operations):
    """3**M full enumerations."""
    workflow = line_workflow(operations, seed=1)
    network = random_bus_network(3, seed=2)
    model = CostModel(workflow, network)
    algorithm = Exhaustive()
    best = benchmark(algorithm.best, workflow, network, model)
    assert best.cost.objective > 0


def bench_heuristic_optimality_gap(benchmark):
    """Objective gap of each heuristic vs the true optimum (3 servers)."""
    suite = (
        "FairLoad",
        "FL-TieResolver",
        "FL-TieResolver2",
        "FL-MergeMsgEnds",
        "HeavyOps-LargeMsgs",
        "HillClimbing",
    )

    def measure():
        registry = algorithm_registry()
        gaps = {name: [] for name in suite}
        for seed in range(8):
            workflow = line_workflow(7, seed=seed)
            network = random_bus_network(3, seed=seed + 100)
            model = CostModel(workflow, network)
            optimum = Exhaustive().best(workflow, network, model).cost.objective
            for name in suite:
                deployment = registry[name]().deploy(
                    workflow, network, cost_model=model, rng=seed
                )
                gaps[name].append(model.objective(deployment) / optimum - 1.0)
        return gaps

    gaps = benchmark.pedantic(measure, rounds=1, iterations=1)
    table = TextTable(
        ["algorithm", "mean_gap", "worst_gap"],
        title="objective gap vs exhaustive optimum (7 ops, 3 servers, 8 seeds)",
    )
    for name in suite:
        values = gaps[name]
        table.add_row(
            [
                name,
                f"{ordered_sum(values) / len(values):.1%}",
                f"{max(values):.1%}",
            ]
        )
    emit("exhaustive_gap", table)
