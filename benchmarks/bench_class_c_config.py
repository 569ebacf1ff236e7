"""Table 6 -- the Class C experimental configuration.

Validates (and times) the parameter machinery itself: draws large samples
from each Table 6 mixture and prints the empirical frequencies next to
the configured ones, plus the workflow/network generator throughput the
whole harness rests on.
"""

import random

from repro.tables import TextTable
from repro.workloads.generator import line_workflow, random_bus_network
from repro.workloads.parameters import ClassCParameters

from _common import emit

DRAWS = 40_000


def bench_class_c_mixtures(benchmark):
    parameters = ClassCParameters.paper()

    def empirical():
        rows = []
        specs = [
            ("MsgSize (bits)", parameters.message_mixture, "message"),
            ("Line_Speed (bps)", parameters.line_speed_bps, "plain"),
            ("C(O) (cycles)", parameters.operation_cycles, "plain"),
            ("P(S) (Hz)", parameters.server_power_hz, "plain"),
        ]
        rng = random.Random(12)
        for title, mixture, kind in specs:
            counts: dict[object, int] = {}
            for _ in range(DRAWS):
                if kind == "message":
                    value = mixture.sample(rng).size_bits
                else:
                    value = mixture.sample(rng)
                counts[value] = counts.get(value, 0) + 1
            rows.append((title, counts))
        return rows

    rows = benchmark.pedantic(empirical, rounds=1, iterations=1)
    table = TextTable(
        ["parameter", "value", "configured", "empirical"],
        title=f"Table 6 mixtures: configured vs {DRAWS} draws",
    )
    parameters_by_title = {
        "MsgSize (bits)": [
            (c.size_bits, 0.25 if c.name != "medium" else 0.50)
            for c in ClassCParameters.paper().message_mixture.classes
        ],
        "Line_Speed (bps)": list(
            zip(
                ClassCParameters.paper().line_speed_bps.values,
                ClassCParameters.paper().line_speed_bps.probabilities(),
            )
        ),
        "C(O) (cycles)": list(
            zip(
                ClassCParameters.paper().operation_cycles.values,
                ClassCParameters.paper().operation_cycles.probabilities(),
            )
        ),
        "P(S) (Hz)": list(
            zip(
                ClassCParameters.paper().server_power_hz.values,
                ClassCParameters.paper().server_power_hz.probabilities(),
            )
        ),
    }
    for title, counts in rows:
        for value, probability in parameters_by_title[title]:
            table.add_row(
                [
                    title,
                    f"{value:g}",
                    f"{probability:.2f}",
                    f"{counts.get(value, 0) / DRAWS:.3f}",
                ]
            )
    emit("class_c_config", table)


def bench_instance_generation(benchmark):
    """Throughput of one full Class C instance (workflow + network)."""

    def generate():
        workflow = line_workflow(19, seed=1)
        network = random_bus_network(5, seed=2)
        return workflow, network

    workflow, network = benchmark(generate)
    assert len(workflow) == 19 and len(network) == 5
