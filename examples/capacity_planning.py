"""Capacity planning: how many servers / how fast a bus does a provider need?

A service provider hosts a *portfolio* of workflows (the section 6
multi-workflow extension): the healthcare rendezvous system plus two
batch pipelines. This script sweeps the two provisioning levers --
server count and bus speed -- deploys the whole portfolio jointly with
HeavyOps-LargeMsgs at each point, and reports completion time, fairness
and the load headroom left on the busiest server.

Run with::

    python examples/capacity_planning.py
"""

from repro import CostModel, HeavyOpsLargeMsgs, bus_network, line_workflow
from repro.experiments.multi_workflow import combine_workflows
from repro.tables import TextTable, format_seconds
from repro.workloads.gallery import healthcare_workflow
from repro.workloads.generator import GraphStructure, random_graph_workflow

SERVER_COUNTS = (3, 5, 8)
BUS_SPEEDS = (10e6, 100e6, 1000e6)
SERVER_POWER_HZ = 2e9


def portfolio():
    """The provider's hosted workflows."""
    return [
        healthcare_workflow(),
        line_workflow(12, seed=21, name="billing-pipeline"),
        random_graph_workflow(
            14, GraphStructure.HYBRID, seed=22, name="claims-audit"
        ),
    ]


def main() -> None:
    workflows = portfolio()
    combined = combine_workflows(workflows, name="portfolio")
    print(
        f"portfolio: {len(workflows)} workflows, "
        f"{len(combined)} operations total\n"
    )

    table = TextTable(
        [
            "servers",
            "bus",
            "Texecute",
            "TimePenalty",
            "busiest_load",
            "mean_load",
        ],
        title="joint deployment with HeavyOps-LargeMsgs",
    )
    for count in SERVER_COUNTS:
        for speed in BUS_SPEEDS:
            network = bus_network(
                [SERVER_POWER_HZ] * count,
                speed_bps=speed,
                name=f"bus-{count}",
            )
            model = CostModel(combined, network)
            deployment = HeavyOpsLargeMsgs().deploy(
                combined, network, cost_model=model
            )
            cost = model.evaluate(deployment)
            loads = list(cost.loads.values())
            table.add_row(
                [
                    count,
                    f"{speed / 1e6:g} Mbps",
                    format_seconds(cost.execution_time),
                    format_seconds(cost.time_penalty),
                    format_seconds(max(loads)),
                    format_seconds(sum(loads) / len(loads)),
                ]
            )
    print(table)

    print(
        "\nReading the table: more servers cut the busiest load (headroom "
        "for failover and growth), while a faster bus cuts execution time "
        "-- on a 10 Mbps bus HeavyOps-LargeMsgs co-locates heavily, so "
        "added servers help less until the bus is upgraded."
    )


if __name__ == "__main__":
    main()
