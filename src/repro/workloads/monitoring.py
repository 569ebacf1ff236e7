"""Branch-probability estimation from observed executions (section 3.4).

The paper determines XOR branch probabilities "based on monitoring
initial executions of the workflow or simple prediction mechanisms".
This module closes that loop with the library's own simulator: run a
deployed workflow some number of times, count how often each XOR branch
was taken, and produce a calibrated copy of the workflow whose edge
probabilities are the observed frequencies (mixed with a small uniform
component so a branch never collapses to exactly 0).

Assumption: each XOR branch's head operation has the split as its only
predecessor -- true for every workflow this library's builder or
generator produces (branches are non-empty chains) -- so "branch taken"
can be read off the set of executed operations.
"""

from __future__ import annotations

import random
from dataclasses import replace

from repro.core.mapping import Deployment
from repro.core.workflow import NodeKind, Workflow
from repro.exceptions import ExperimentError
from repro.network.topology import ServerNetwork
from repro.numeric import ordered_sum
from repro.simulation.engine import SimulationEngine

__all__ = [
    "observe_branch_frequencies",
    "calibrated_workflow",
    "monitor_and_calibrate",
]


def observe_branch_frequencies(
    workflow: Workflow,
    network: ServerNetwork,
    deployment: Deployment,
    runs: int = 200,
    rng: random.Random | int | None = None,
) -> dict[tuple[str, str], float]:
    """Observed conditional branch frequencies per XOR edge.

    Returns ``{(split, branch_head): frequency}`` where the frequency is
    conditional on the split having executed; splits that never executed
    (nested inside other rarely-taken branches) yield no entries.
    """
    if runs < 1:
        raise ExperimentError("runs must be >= 1")
    for operation in workflow:
        if operation.kind is NodeKind.XOR_SPLIT:
            for head in workflow.successors(operation.name):
                predecessors = workflow.predecessors(head)
                if len(predecessors) != 1:
                    raise ExperimentError(
                        f"branch head {head!r} has {len(predecessors)} "
                        f"predecessors; monitoring requires XOR branch "
                        f"heads reachable only through their split"
                    )
    engine = SimulationEngine(workflow, network, deployment)
    split_runs: dict[str, int] = {}
    taken: dict[tuple[str, str], int] = {}
    for result in engine.run_many(runs, rng):
        executed = result.executed_operations
        for operation in workflow:
            if operation.kind is not NodeKind.XOR_SPLIT:
                continue
            if operation.name not in executed:
                continue
            split_runs[operation.name] = split_runs.get(operation.name, 0) + 1
            for head in workflow.successors(operation.name):
                if head in executed:
                    key = (operation.name, head)
                    taken[key] = taken.get(key, 0) + 1
    frequencies: dict[tuple[str, str], float] = {}
    for split, count in split_runs.items():
        for head in workflow.successors(split):
            frequencies[(split, head)] = taken.get((split, head), 0) / count
    return frequencies


def calibrated_workflow(
    workflow: Workflow,
    frequencies: dict[tuple[str, str], float],
    smoothing: float = 0.01,
    name: str | None = None,
) -> Workflow:
    """A copy of *workflow* with XOR probabilities set from *frequencies*.

    ``smoothing`` mixes a uniform distribution into the observations:
    ``p = (1 - smoothing) * frequency + smoothing / branches``. A small
    positive value keeps branches the monitor never saw at a non-zero
    probability (they may still occur in production). Splits absent from
    *frequencies* keep their original annotations.
    """
    if not 0.0 <= smoothing <= 1.0:
        raise ExperimentError("smoothing must lie in [0, 1]")
    calibrated = workflow.copy(name or f"{workflow.name}-calibrated")
    for operation in workflow:
        if operation.kind is not NodeKind.XOR_SPLIT:
            continue
        heads = workflow.successors(operation.name)
        if not all((operation.name, head) in frequencies for head in heads):
            continue  # split never observed: keep prior probabilities
        observed = [frequencies[(operation.name, head)] for head in heads]
        total = ordered_sum(observed)
        if total <= 0:
            continue
        probabilities = [
            (1.0 - smoothing) * value / total + smoothing / len(heads)
            for value in observed
        ]
        probabilities[-1] = 1.0 - ordered_sum(probabilities[:-1])
        for head, probability in zip(heads, probabilities):
            message = workflow.message(operation.name, head)
            calibrated.replace_message(
                replace(message, probability=probability)
            )
    calibrated.validate_xor_probabilities()
    return calibrated


def monitor_and_calibrate(
    workflow: Workflow,
    network: ServerNetwork,
    deployment: Deployment,
    runs: int = 200,
    smoothing: float = 0.01,
    rng: random.Random | int | None = None,
) -> Workflow:
    """Observe *runs* executions and return the calibrated workflow.

    The section 3.4 pipeline in one call: monitor initial executions,
    estimate branch probabilities, and hand back a workflow whose
    amortised costs reflect the observed behaviour -- ready to be
    re-deployed with any graph algorithm.
    """
    frequencies = observe_branch_frequencies(
        workflow, network, deployment, runs=runs, rng=rng
    )
    return calibrated_workflow(workflow, frequencies, smoothing=smoothing)
