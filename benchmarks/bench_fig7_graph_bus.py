"""Fig. 7 -- Random Graph--Bus algorithms (overall performance).

The paper pools the three random-graph structures and scatters the
algorithms' (execution time, time penalty). Reproduction target: "For
almost all configurations, the HeavyOps-LargeMsgs algorithm appears to
be a clear winner" on execution time, staying close to the best fairness
on fast buses; FL-MergeMsgEnds comes close on execution time but is
unstable on fairness.
"""

import pytest

from repro.experiments.classes import FIG6_BUS_SPEEDS
from repro.experiments.reporting import scatter_table
from repro.numeric import ordered_sum
from repro.experiments.runner import (
    DEFAULT_ALGORITHMS,
    ExperimentConfig,
    ExperimentRunner,
)
from repro.tables import TextTable, format_seconds

from _common import emit

STRUCTURES = ("bushy", "lengthy", "hybrid")


@pytest.mark.parametrize("speed", FIG6_BUS_SPEEDS)
def bench_fig7_overall(benchmark, speed):
    runner = ExperimentRunner(DEFAULT_ALGORITHMS)

    def run_all():
        results = []
        for kind in STRUCTURES:
            config = ExperimentConfig(
                workflow_kind=kind,
                num_operations=19,
                num_servers=5,
                bus_speed_bps=speed,
                repetitions=6,
                seed=42,
            )
            results.append(runner.run(config))
        return results

    results = benchmark.pedantic(run_all, rounds=2, iterations=1)

    # pool the scatter points of all structures, as Fig. 7 does
    pooled: dict[str, list[tuple[float, float]]] = {}
    for result in results:
        for name, points in result.scatter_points().items():
            pooled.setdefault(name, []).extend(points)

    label = f"fig7_graph_bus_{speed / 1e6:g}Mbps"
    summary = TextTable(
        ["algorithm", "mean_Texecute", "mean_TimePenalty"],
        title=f"pooled over {STRUCTURES} ({label})",
    )
    for name in DEFAULT_ALGORITHMS:
        executions = [e for e, _ in pooled[name]]
        penalties = [p for _, p in pooled[name]]
        summary.add_row(
            [
                name,
                format_seconds(ordered_sum(executions) / len(executions)),
                format_seconds(ordered_sum(penalties) / len(penalties)),
            ]
        )
    emit(
        label,
        summary,
        scatter_table(pooled, title=f"scatter ({label})"),
    )
