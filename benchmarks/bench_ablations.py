"""Ablation benches for the design choices called out in DESIGN.md.

1. Critical-bridge phase 2 on/off (Line--Line).
2. Random initial mapping for the tie resolvers vs an empty start proxy
   (tie resolution on/off, i.e. FLTR vs Fair Load on tie-heavy loads).
3. HOLM's adaptive large-message threshold across bus speeds (where does
   grouping start to trigger?).
4. Analytic model vs discrete-event simulation: agreement without
   contention, slowdown with single-core servers (what the paper's model
   ignores).
5. Local-search polish on top of HOLM (how much is left on the table).
"""

import random

from repro.algorithms.fair_load import FairLoad
from repro.algorithms.heavy_ops import HeavyOpsLargeMsgs
from repro.algorithms.line_line import LineLine
from repro.algorithms.local_search import HillClimbing
from repro.algorithms.tie_resolver import FairLoadTieResolver
from repro.core.cost import CostModel
from repro.core.workflow import Operation, Workflow
from repro.network.topology import bus_network
from repro.numeric import ordered_sum
from repro.simulation.engine import SimulationEngine
from repro.tables import TextTable, format_seconds
from repro.workloads.generator import line_workflow, random_line_network
from repro.workloads.parameters import ClassCParameters

from _common import emit


def bench_ablation_bridge_fixing(benchmark):
    """Phase 2 of Line--Line: execution time with and without."""

    def measure():
        with_fix, without_fix = 0.0, 0.0
        for seed in range(10):
            workflow = line_workflow(19, seed=seed)
            network = random_line_network(5, seed=seed + 50)
            model = CostModel(workflow, network)
            with_fix += model.execution_time(
                LineLine(fix_bridges=True, direction="ltr").deploy(
                    workflow, network, cost_model=model
                )
            )
            without_fix += model.execution_time(
                LineLine(fix_bridges=False, direction="ltr").deploy(
                    workflow, network, cost_model=model
                )
            )
        return with_fix / 10, without_fix / 10

    with_fix, without_fix = benchmark.pedantic(measure, rounds=1, iterations=1)
    table = TextTable(["variant", "mean_Texecute"], title="bridge fixing")
    table.add_row(["phase 1 only", format_seconds(without_fix)])
    table.add_row(["phase 1 + Fix_Bad_Bridges", format_seconds(with_fix)])
    emit("ablation_bridge_fixing", table)


def bench_ablation_tie_resolution(benchmark):
    """Gain-based tie resolution on a worst case: all costs equal."""
    workflow = Workflow("all-ties")
    names = [f"O{i}" for i in range(1, 20)]
    workflow.add_operations(Operation(n, 20e6) for n in names)
    rng = random.Random(3)
    for a, b in zip(names, names[1:]):
        workflow.connect(a, b, rng.choice([6_984.0, 60_648.0, 171_136.0]))
    network = bus_network([1e9, 2e9, 2e9, 3e9, 2e9], speed_bps=1e6)
    model = CostModel(workflow, network)

    def measure():
        fair = model.total_communication_time(
            FairLoad().deploy(workflow, network, cost_model=model)
        )
        resolver = ordered_sum(
            model.total_communication_time(
                FairLoadTieResolver().deploy(
                    workflow, network, cost_model=model, rng=seed
                )
            )
            for seed in range(10)
        ) / 10
        return fair, resolver

    fair, resolver = benchmark.pedantic(measure, rounds=1, iterations=1)
    table = TextTable(
        ["algorithm", "total_Tcomm"],
        title="tie resolution on an all-equal-cost workflow (1 Mbps bus)",
    )
    table.add_row(["FairLoad (tie-blind)", format_seconds(fair)])
    table.add_row(["FL-TieResolver (mean of 10 seeds)", format_seconds(resolver)])
    emit("ablation_tie_resolution", table)


def bench_ablation_random_start(benchmark):
    """The paper's random initial mapping vs an empty start.

    With a random start the gain function sees (provisional) neighbours
    from the first step; empty-start gains are blind until real
    assignments accumulate. Measured on tie-heavy workloads where the
    gain function actually decides."""
    workflow = Workflow("ties")
    names = [f"O{i}" for i in range(1, 20)]
    workflow.add_operations(Operation(n, 20e6) for n in names)
    rng = random.Random(9)
    for a, b in zip(names, names[1:]):
        workflow.connect(a, b, rng.choice([6_984.0, 60_648.0, 171_136.0]))
    network = bus_network([1e9, 2e9, 2e9, 3e9, 2e9], speed_bps=1e6)
    model = CostModel(workflow, network)

    def measure():
        rows = []
        for random_start in (True, False):
            total = 0.0
            seeds = 10
            for seed in range(seeds):
                deployment = FairLoadTieResolver(
                    random_start=random_start
                ).deploy(workflow, network, cost_model=model, rng=seed)
                total += model.execution_time(deployment)
            rows.append((random_start, total / seeds))
        return rows

    rows = benchmark.pedantic(measure, rounds=1, iterations=1)
    table = TextTable(
        ["initial mapping", "mean_Texecute"],
        title="FLTR initialisation ablation (all-ties workload, 1 Mbps)",
    )
    for random_start, execution in rows:
        label = "random (paper)" if random_start else "empty"
        table.add_row([label, format_seconds(execution)])
    emit("ablation_random_start", table)


def bench_ablation_holm_threshold(benchmark):
    """HOLM's adaptive threshold: grouping degree across bus speeds."""
    parameters = ClassCParameters.paper()

    def measure():
        rows = []
        for speed in (1e6, 10e6, 100e6, 1000e6):
            pinned = parameters.with_fixed_bus_speed(speed)
            used, execution = 0.0, 0.0
            runs = 8
            for seed in range(runs):
                workflow = line_workflow(19, seed=seed, parameters=pinned)
                network = bus_network(
                    [1e9, 2e9, 2e9, 3e9, 2e9], speed_bps=speed
                )
                model = CostModel(workflow, network)
                deployment = HeavyOpsLargeMsgs().deploy(
                    workflow, network, cost_model=model
                )
                used += len(deployment.used_servers())
                execution += model.execution_time(deployment)
            rows.append((speed, used / runs, execution / runs))
        return rows

    rows = benchmark.pedantic(measure, rounds=1, iterations=1)
    table = TextTable(
        ["bus_speed", "mean_servers_used", "mean_Texecute"],
        title="HOLM grouping vs bus speed (5 servers, 19 ops)",
    )
    for speed, used, execution in rows:
        table.add_row(
            [f"{speed / 1e6:g} Mbps", f"{used:.1f}", format_seconds(execution)]
        )
    emit("ablation_holm_threshold", table)


def bench_ablation_model_vs_simulation(benchmark):
    """Analytic Texecute vs DES makespan; contention slowdown."""

    from repro.core.workflow import NodeKind
    from repro.workloads.generator import GraphStructure, random_graph_workflow

    def measure():
        agreement_error = 0.0
        slowdown = 0.0
        runs = 8
        for seed in range(runs):
            # bushy AND/OR graphs have parallel branches, so single-core
            # servers actually queue (a line never does)
            workflow = random_graph_workflow(
                19,
                GraphStructure.BUSHY,
                seed=seed,
                kind_weights=((NodeKind.AND_SPLIT, 0.7), (NodeKind.OR_SPLIT, 0.3)),
            )
            network = bus_network([1e9, 2e9, 2e9, 3e9, 2e9], speed_bps=10e6)
            model = CostModel(workflow, network)
            deployment = HeavyOpsLargeMsgs().deploy(
                workflow, network, cost_model=model
            )
            analytic = model.execution_time(deployment)
            free = SimulationEngine(workflow, network, deployment).run()
            contended = SimulationEngine(
                workflow, network, deployment, server_concurrency=1
            ).run()
            agreement_error = max(
                agreement_error, abs(free.makespan - analytic) / analytic
            )
            slowdown += contended.makespan / free.makespan
        return agreement_error, slowdown / runs

    error, slowdown = benchmark.pedantic(measure, rounds=1, iterations=1)
    table = TextTable(["metric", "value"], title="model vs simulation")
    table.add_row(["worst relative |DES - analytic| (uncontended)", f"{error:.2e}"])
    table.add_row(["mean single-core slowdown factor", f"{slowdown:.3f}x"])
    emit("ablation_model_vs_simulation", table)


def bench_ablation_bus_contention(benchmark):
    """What the paper's independent-transfer assumption hides.

    Simulate Fair Load and HOLM deployments of bushy AND-graphs on a
    congested shared bus: transfers serialise, so communication-heavy
    mappings pay even more than the analytic model predicts.
    """
    from repro.core.workflow import NodeKind
    from repro.workloads.generator import GraphStructure, random_graph_workflow

    def measure():
        rows = []
        for algorithm in (FairLoad(), HeavyOpsLargeMsgs()):
            free_total, shared_total = 0.0, 0.0
            runs = 6
            for seed in range(runs):
                workflow = random_graph_workflow(
                    15,
                    GraphStructure.BUSHY,
                    seed=seed,
                    kind_weights=((NodeKind.AND_SPLIT, 1.0),),
                )
                network = bus_network([1e9, 2e9, 3e9], speed_bps=1e6)
                model = CostModel(workflow, network)
                deployment = algorithm.deploy(
                    workflow, network, cost_model=model
                )
                free_total += SimulationEngine(
                    workflow, network, deployment
                ).run().makespan
                shared_total += SimulationEngine(
                    workflow, network, deployment, exclusive_bus=True
                ).run().makespan
            rows.append(
                (algorithm.name, free_total / runs, shared_total / runs)
            )
        return rows

    rows = benchmark.pedantic(measure, rounds=1, iterations=1)
    table = TextTable(
        ["algorithm", "free-bus makespan", "exclusive-bus makespan", "slowdown"],
        title="shared-bus contention (AND-graphs, 1 Mbps)",
    )
    for name, free, shared in rows:
        table.add_row(
            [
                name,
                format_seconds(free),
                format_seconds(shared),
                f"{shared / free:.2f}x",
            ]
        )
    emit("ablation_bus_contention", table)


def bench_ablation_local_search_polish(benchmark):
    """How much hill climbing still improves HOLM's mappings."""

    def measure():
        improvements = []
        for seed in range(6):
            workflow = line_workflow(12, seed=seed)
            network = bus_network([1e9, 2e9, 3e9], speed_bps=1e6)
            model = CostModel(workflow, network)
            base = model.objective(
                HeavyOpsLargeMsgs().deploy(workflow, network, cost_model=model)
            )
            polished = model.objective(
                HillClimbing(seed_algorithm=HeavyOpsLargeMsgs()).deploy(
                    workflow, network, cost_model=model, rng=seed
                )
            )
            improvements.append(1.0 - polished / base)
        return improvements

    improvements = benchmark.pedantic(measure, rounds=1, iterations=1)
    table = TextTable(
        ["metric", "value"], title="hill-climbing polish on HOLM (12 ops)"
    )
    mean = ordered_sum(improvements) / len(improvements)
    table.add_row(["mean objective improvement", f"{mean:.1%}"])
    table.add_row(["max objective improvement", f"{max(improvements):.1%}"])
    emit("ablation_local_search_polish", table)
