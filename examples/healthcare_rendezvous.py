"""The paper's motivating example (Fig. 1): the ministry rendezvous system.

A ministry of health runs a 15-operation patient-rendezvous workflow
(XOR on doctor availability, AND fan-out for medicine registration and
social-security notification) over its 5 servers. This script answers
the section 2.1 question -- which of the 5**15 configurations to pick --
three ways:

1. run every deployment algorithm and compare the two cost metrics;
2. filter the candidates through a fairness constraint (section 2.2's
   constraint set C) and pick the fastest admissible one;
3. validate the winner by actually *executing* the workflow 500 times in
   the discrete-event simulator and comparing measured makespans with
   the analytic prediction.

Run with::

    python examples/healthcare_rendezvous.py
"""

from repro import (
    ConstraintSet,
    CostModel,
    MaxTimePenalty,
    SimulationEngine,
    algorithm_registry,
    healthcare_workflow,
)
from repro.tables import TextTable, format_seconds
from repro.workloads.gallery import ministry_network

SUITE = (
    "Random",
    "FairLoad",
    "FL-TieResolver",
    "FL-TieResolver2",
    "FL-MergeMsgEnds",
    "HeavyOps-LargeMsgs",
)

#: fairness budget: no more than 45 ms mean absolute load deviation (the
#: 500 Mcycle conduct_meeting operation makes perfect balance impossible)
FAIRNESS_LIMIT_S = 0.045


def main() -> None:
    workflow = healthcare_workflow()
    network = ministry_network(speed_bps=10e6)  # a modest ministry LAN
    model = CostModel(workflow, network)
    registry = algorithm_registry()

    print(f"search space: {len(network)}**{len(workflow)} = "
          f"{len(network) ** len(workflow):,} configurations\n")

    # 1. compare the suite
    table = TextTable(
        ["algorithm", "Texecute", "TimePenalty", "objective"],
        title="candidate deployments",
    )
    candidates = {}
    for name in SUITE:
        deployment = registry[name]().deploy(
            workflow, network, cost_model=model, rng=7
        )
        cost = model.evaluate(deployment)
        candidates[name] = (deployment, cost)
        table.add_row(
            [
                name,
                format_seconds(cost.execution_time),
                format_seconds(cost.time_penalty),
                format_seconds(cost.objective),
            ]
        )
    print(table)

    # 2. constraint-filtered selection
    constraints = ConstraintSet([MaxTimePenalty(FAIRNESS_LIMIT_S)])
    admissible = {
        name: (deployment, cost)
        for name, (deployment, cost) in candidates.items()
        if constraints.satisfied(cost)
    }
    if admissible:
        winner = min(
            admissible, key=lambda name: admissible[name][1].execution_time
        )
        print(
            f"\nfastest deployment with penalty <= "
            f"{format_seconds(FAIRNESS_LIMIT_S)}: {winner}"
        )
    else:
        # no candidate satisfies the constraint; fall back to the best
        # scalar objective and report the violation explicitly
        winner = min(
            candidates, key=lambda name: candidates[name][1].objective
        )
        violations = ConstraintSet(
            [MaxTimePenalty(FAIRNESS_LIMIT_S)]
        ).violations(candidates[winner][1])
        print(
            f"\nno candidate satisfies the fairness budget "
            f"({'; '.join(violations)}); falling back to the best "
            f"objective: {winner}"
        )
        admissible = {winner: candidates[winner]}

    # 3. validate with the simulator
    deployment, cost = admissible[winner]
    engine = SimulationEngine(workflow, network, deployment)
    measured = engine.expected_makespan(runs=500, rng=1)
    print(f"analytic expected completion: {format_seconds(cost.execution_time)}")
    print(f"simulated mean over 500 runs: {format_seconds(measured)}")

    single = SimulationEngine(
        workflow, network, deployment, server_concurrency=1
    ).expected_makespan(runs=500, rng=1)
    print(f"with single-core servers:     {format_seconds(single)} "
          f"(queueing the model ignores)")

    print("\nchosen mapping:")
    for server in network.server_names:
        operations = deployment.operations_on(server)
        print(f"  {server}: {', '.join(operations) or '-'}")


if __name__ == "__main__":
    main()
