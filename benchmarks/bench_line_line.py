"""Section 3.2 -- the four Line--Line variants.

The paper introduces Line--Line mainly for its observations (contiguous
blocks, critical bridges); no figure is given, so this bench produces
the comparison the text implies: the four variants (phase 2 on/off,
one-direction vs best-of-both) on Class C line workflows over line
networks with heterogeneous link speeds -- the setting where critical
bridges exist.
"""

from repro.algorithms.line_line import LineLine
from repro.core.cost import CostModel
from repro.tables import TextTable, format_seconds
from repro.workloads.generator import line_workflow, random_line_network

from _common import emit

VARIANTS = [
    ("phase1 only, L->R", LineLine(fix_bridges=False, direction="ltr")),
    ("phase1+bridges, L->R", LineLine(fix_bridges=True, direction="ltr")),
    ("phase1 only, best dir", LineLine(fix_bridges=False, direction="best")),
    ("phase1+bridges, best dir", LineLine(fix_bridges=True, direction="best")),
]

REPETITIONS = 12


def bench_line_line_variants(benchmark):
    def run_all():
        sums = {label: [0.0, 0.0] for label, _ in VARIANTS}
        for seed in range(REPETITIONS):
            workflow = line_workflow(19, seed=seed)
            network = random_line_network(5, seed=seed + 1000)
            model = CostModel(workflow, network)
            for label, algorithm in VARIANTS:
                cost = model.evaluate(
                    algorithm.deploy(workflow, network, cost_model=model)
                )
                sums[label][0] += cost.execution_time
                sums[label][1] += cost.time_penalty
        return sums

    sums = benchmark.pedantic(run_all, rounds=2, iterations=1)
    table = TextTable(
        ["variant", "mean_Texecute", "mean_TimePenalty"],
        title=f"Line-Line variants over {REPETITIONS} Class C instances",
    )
    for label, _ in VARIANTS:
        execution, penalty = sums[label]
        table.add_row(
            [
                label,
                format_seconds(execution / REPETITIONS),
                format_seconds(penalty / REPETITIONS),
            ]
        )
    emit("line_line_variants", table)
