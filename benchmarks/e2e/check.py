"""Correctness oracle of the end-to-end benchmark, run on every unit.

The oracle never trusts the program's caches. It copies the final
network, builds fresh cost models over the copy (so fresh routers that
run their own Dijkstra passes) and requires the program's answers to
match bit for bit:

* fleet: every hosted operation sits on a live server, and the fresh
  models reproduce the snapshot's per-server loads and its objective;
* deploy: a fresh model re-prices each returned deployment to exactly
  the objective the algorithm reported.

The decision digest (equal with tracing on and off) is checked by the
runner. Each function returns a list of one-line problems, empty when
everything holds.
"""

from __future__ import annotations


def _fresh_copy(network):
    from repro.io.json_codec import network_from_dict, network_to_dict

    return network_from_dict(network_to_dict(network))


def check_fleet(controller) -> list[str]:
    """Re-derive the fleet snapshot from scratch and compare exactly."""
    from repro.core.compiled import penalty_statistic
    from repro.core.cost import CostModel
    from repro.network.routing import Router

    state = controller.state
    live = set(state.network.server_names)
    problems = [
        f"{tenant}/{operation} sits on {server!r}, not a live server"
        for tenant in state.tenants
        for operation in state.tenant(tenant).workflow.operation_names
        if (server := state.tenant(tenant).deployment.get(operation)) not in live
    ]
    if problems:
        return problems
    network = _fresh_copy(state.network)
    router = Router(network)
    loads = {name: 0.0 for name in network.server_names}
    execution = 0.0
    for tenant in state.tenants:
        record = state.tenant(tenant)
        model = CostModel(
            record.workflow,
            network,
            execution_weight=state.execution_weight,
            penalty_weight=state.penalty_weight,
            penalty_mode=state.penalty_mode,
            router=router,
        )
        for server, load in model.loads(record.deployment).items():
            loads[server] += load
        execution = max(execution, model.execution_time(record.deployment))
    penalty = penalty_statistic(list(loads.values()), state.penalty_mode)
    objective = (
        state.execution_weight * execution + state.penalty_weight * penalty
    )
    snapshot = controller.snapshot()
    if dict(snapshot.loads) != loads:
        problems.append("fleet loads differ from a fresh re-pricing")
    if snapshot.objective != objective:
        problems.append(
            f"fleet objective {snapshot.objective!r} differs from a fresh "
            f"re-pricing {objective!r}"
        )
    return problems


def check_deploys(workflow, network, reported: list[tuple]) -> list[str]:
    """Re-price each returned ``(deployment, objective)`` of one instance
    on a fresh model over a fresh copy of its network."""
    from repro.core.cost import CostModel

    model = CostModel(workflow, _fresh_copy(network))
    problems = []
    for deployment, value in reported:
        repriced = model.objective(deployment)
        if repriced != value:
            problems.append(
                f"{workflow.name}: reported objective {value!r} but a fresh "
                f"model prices {repriced!r}"
            )
    return problems
