"""Topology study: how the server interconnect shapes the deployment.

The paper evaluates line and bus interconnects; the library also models
star, ring and mesh (extension topologies). This script deploys the same
Class C workflow onto each topology (same total compute, same link
speed), and separately demonstrates the Line--Line algorithm's
critical-bridge repair on a line with one congested link.

Run with::

    python examples/topology_study.py
"""

from repro import (
    CostModel,
    HeavyOpsLargeMsgs,
    LineLine,
    bus_network,
    line_network,
    line_workflow,
    ring_network,
    star_network,
)
from repro.tables import TextTable, format_seconds

POWERS = [1e9, 2e9, 2e9, 3e9, 2e9]
SPEED = 10e6


def topologies():
    return [
        ("bus", bus_network(POWERS, speed_bps=SPEED)),
        ("line", line_network(POWERS, speeds_bps=SPEED)),
        ("ring", ring_network(POWERS, speed_bps=SPEED)),
        (
            "star",
            star_network(POWERS[3], POWERS[:3] + POWERS[4:], speed_bps=SPEED),
        ),
    ]


def main() -> None:
    workflow = line_workflow(19, seed=3)

    table = TextTable(
        ["topology", "Texecute", "TimePenalty", "servers_used"],
        title="HeavyOps-LargeMsgs across interconnects (same compute, 10 Mbps links)",
    )
    for name, network in topologies():
        model = CostModel(workflow, network)
        deployment = HeavyOpsLargeMsgs().deploy(
            workflow, network, cost_model=model
        )
        cost = model.evaluate(deployment)
        table.add_row(
            [
                name,
                format_seconds(cost.execution_time),
                format_seconds(cost.time_penalty),
                len(deployment.used_servers()),
            ]
        )
    print(table)
    print(
        "\nMulti-hop topologies (line, ring, star) pay routing costs a bus "
        "does not, so the same algorithm consolidates more aggressively "
        "there.\n"
    )

    # --- the critical-bridge repair of section 3.2 -----------------------
    network = line_network(POWERS, speeds_bps=[100e6, 100e6, 1e6, 100e6])
    model = CostModel(workflow, network)
    table = TextTable(
        ["Line-Line variant", "Texecute", "TimePenalty"],
        title="critical-bridge repair on a line with one 1 Mbps link",
    )
    for label, algorithm in [
        ("phase 1 only", LineLine(fix_bridges=False, direction="ltr")),
        ("with Fix_Bad_Bridges", LineLine(fix_bridges=True, direction="ltr")),
        ("best of both directions", LineLine(fix_bridges=True, direction="best")),
    ]:
        cost = model.evaluate(
            algorithm.deploy(workflow, network, cost_model=model)
        )
        table.add_row(
            [
                label,
                format_seconds(cost.execution_time),
                format_seconds(cost.time_penalty),
            ]
        )
    print(table)


if __name__ == "__main__":
    main()
