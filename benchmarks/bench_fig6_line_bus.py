"""Fig. 6 -- Line--Bus algorithms with 19 operations in the workflow.

The paper's figure scatters (execution time, time penalty) per algorithm
for Class C instances on 1 Mbps and 100 Mbps buses, and notes that
HeavyOps-LargeMsgs stays stable as K = M/N grows. This bench regenerates
both: the per-algorithm scatter/summary for each bus speed, and the K
sweep. Reproduction targets (shape, not absolute values):

* 1 Mbps: HOLM clearly fastest; Fair Load fairest; FLMME trades fairness
  for speed; tie resolvers improve on Fair Load in both dimensions.
* 100 Mbps: execution times converge; fairness differentiates.
"""

import pytest

from repro.experiments.classes import FIG6_BUS_SPEEDS
from repro.experiments.reporting import scatter_table
from repro.experiments.runner import (
    DEFAULT_ALGORITHMS,
    ExperimentConfig,
    ExperimentRunner,
)

from _common import emit

SUITE = DEFAULT_ALGORITHMS + ("Random",)


@pytest.mark.parametrize("speed", FIG6_BUS_SPEEDS)
def bench_fig6_scatter(benchmark, speed):
    """One Fig. 6 panel: the full suite on Class C line workflows."""
    runner = ExperimentRunner(SUITE)
    config = ExperimentConfig(
        workflow_kind="line",
        num_operations=19,
        num_servers=5,
        bus_speed_bps=speed,
        repetitions=10,
        seed=42,
    )
    result = benchmark(runner.run, config)
    label = f"fig6_line_bus_{speed / 1e6:g}Mbps"
    emit(
        label,
        result.summary_table(),
        scatter_table(result.scatter_points(), title=f"scatter ({label})"),
        f"winner by execution time: {result.winner_by_execution()}",
        f"winner by time penalty:  {result.winner_by_penalty()}",
    )


def bench_fig6_weight_sensitivity(benchmark):
    """'Assuming different weights for the two measures, different
    distance measures could also be considered' -- who wins as fairness
    gains weight, on the congested bus."""
    from repro.experiments.pareto import weight_sensitivity_table

    runner = ExperimentRunner(SUITE)
    config = ExperimentConfig(
        workflow_kind="line",
        num_operations=19,
        num_servers=5,
        bus_speed_bps=1e6,
        repetitions=8,
        seed=42,
    )
    result = benchmark.pedantic(runner.run, args=(config,), rounds=1, iterations=1)
    emit("fig6_weight_sensitivity", weight_sensitivity_table(result))


def bench_fig6_k_sweep(benchmark):
    """HOLM stability as K = M/N increases (1 Mbps bus)."""
    runner = ExperimentRunner(DEFAULT_ALGORITHMS)

    def sweep():
        rows = []
        for operations in (10, 15, 19, 25, 30):
            config = ExperimentConfig(
                workflow_kind="line",
                num_operations=operations,
                num_servers=5,
                bus_speed_bps=1e6,
                repetitions=6,
                seed=77,
                label=f"K={operations / 5:g}",
            )
            rows.append((config.label, runner.run(config)))
        return rows

    rows = benchmark.pedantic(sweep, rounds=1, iterations=1)
    from repro.tables import TextTable, format_seconds

    table = TextTable(
        ["K", *DEFAULT_ALGORITHMS],
        title="mean Texecute as K = M/N grows (1 Mbps bus)",
    )
    for label, result in rows:
        table.add_row(
            [
                label,
                *(
                    format_seconds(result.mean_execution_time(name))
                    for name in DEFAULT_ALGORITHMS
                ),
            ]
        )
    emit("fig6_k_sweep", table)
