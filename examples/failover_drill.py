"""Failover drill: how gracefully does each deployment degrade?

Section 2.1 motivates fair deployments with resilience: "whenever
additional workflows are deployed, or a server fails, a reasonable load
scale-up is still possible." This script runs the drill: deploy the
healthcare workflow with each algorithm, kill every server in turn,
patch the mapping (orphans re-homed worst-fit, survivors untouched), and
report the worst-case degradation. It then contrasts patching with a
full re-deployment for the worst failure.

Run with::

    python examples/failover_drill.py
"""

from repro import CostModel, algorithm_registry, healthcare_workflow
from repro.experiments.failover import analyze_failure, failover_table
from repro.tables import TextTable, format_seconds
from repro.workloads.gallery import ministry_network

SUITE = ("FairLoad", "FL-TieResolver2", "HeavyOps-LargeMsgs")


def main() -> None:
    workflow = healthcare_workflow()
    network = ministry_network(speed_bps=10e6)
    model = CostModel(workflow, network)
    registry = algorithm_registry()

    summary = TextTable(
        [
            "algorithm",
            "Texecute (healthy)",
            "worst exec scale-up",
            "worst peak-load scale-up",
        ],
        title="worst single-server failure per deployment algorithm",
    )
    deployments = {}
    for name in SUITE:
        deployment = registry[name]().deploy(
            workflow, network, cost_model=model, rng=11
        )
        deployments[name] = deployment
        healthy = model.evaluate(deployment)
        worst_exec, worst_peak = 1.0, 1.0
        for server in network.server_names:
            report = analyze_failure(workflow, network, deployment, server)
            worst_exec = max(worst_exec, report.execution_scale_up)
            worst_peak = max(worst_peak, report.peak_load_scale_up)
        summary.add_row(
            [
                name,
                format_seconds(healthy.execution_time),
                f"{worst_exec:.2f}x",
                f"{worst_peak:.2f}x",
            ]
        )
    print(summary)

    # per-server detail for the paper's winner
    print()
    print(
        failover_table(
            workflow, network, deployments["HeavyOps-LargeMsgs"]
        )
    )

    # patching vs full re-deployment for the most damaging failure
    deployment = deployments["HeavyOps-LargeMsgs"]
    worst_server = max(
        network.server_names,
        key=lambda server: analyze_failure(
            workflow, network, deployment, server
        ).execution_scale_up,
    )
    patched = analyze_failure(workflow, network, deployment, worst_server)
    redeployed = analyze_failure(
        workflow,
        network,
        deployment,
        worst_server,
        algorithm=registry["HeavyOps-LargeMsgs"](),
        rng=11,
    )
    print(
        f"\nworst failure is {worst_server}: patching gives "
        f"{format_seconds(patched.after.execution_time)}, full "
        f"re-deployment {format_seconds(redeployed.after.execution_time)} "
        f"(moves {len(patched.orphaned_operations)} vs "
        f"{len(deployment.diff(redeployed.recovered))} operations)"
    )


if __name__ == "__main__":
    main()
