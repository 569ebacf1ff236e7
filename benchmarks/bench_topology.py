"""Benchmark: rebalancing under link failures on a real topology.

Replays the seeded ``abilene`` scenario twice through the fleet
controller -- tenants on the bundled Abilene backbone
(:func:`repro.scenarios.abilene_network`) hit by trunk brownouts and a
link failure. The *naive* run pins ``drift_threshold`` to 1.0, which
the time-penalty share of the objective can never reach, so placements
are frozen at admission time and every network event is simply
absorbed. The *rebalancing* run keeps the scenario's hysteresis
controller, which re-checks drift after every topology patch and moves
the worst-hit tenants over the surviving links.

The headline number is ``naive_total / rebalancing_total`` over the
per-event objective series -- > 1 means reacting to topology changes
beats riding them out. The ratio is a pure function of the seed
(deterministic replay), so the floor assertion holds on any hardware;
override with ``BENCH_FLOOR_TOPOLOGY`` (0 disables).

Also asserts the replay contract on the way: two replays of the same
``(scenario, seed)`` must produce byte-identical decision logs.

Results land in ``output/BENCH_topology.json`` with the per-event
objective-over-time series for both modes. ``BENCH_SMOKE=1`` runs the
same scenario (it is already small) -- the CI smoke step executes every
path including the floor assertion.
"""

import os
import time
from dataclasses import replace

from repro.core.clock import StepClock
from repro.numeric import ordered_sum
from repro.service.controller import FleetController
from repro.service.scenarios import build_scenario

from _common import emit, host, perf_floor, write_json

SMOKE = os.environ.get("BENCH_SMOKE", "") not in ("", "0")

SCENARIO = "abilene"
SEED = 0

#: The time-penalty share of the objective is strictly below 1 whenever
#: any operation executes at all, so this threshold never fires: the
#: naive controller admits tenants and then never moves anything again.
NAIVE_DRIFT_THRESHOLD = 1.0

#: naive/rebalancing total-objective ratio floor. Deterministic (seeded
#: replay), so asserted even in smoke mode; env-tunable regardless.
RATIO_FLOOR = perf_floor("TOPOLOGY", 1.05)

_RESULTS: dict = {
    "host": host(),
    "smoke": SMOKE,
    "scenario": SCENARIO,
    "seed": SEED,
    "naive_drift_threshold": NAIVE_DRIFT_THRESHOLD,
    "ratio_floor": RATIO_FLOOR,
}


def _flush_results() -> None:
    write_json("BENCH_topology", _RESULTS)


def _replay(**overrides):
    """Run the abilene scenario under config *overrides*.

    Returns ``(controller, objective_series)`` where the series holds
    the fleet objective after every handled event.
    """
    scenario = build_scenario(SCENARIO, seed=SEED)
    config = replace(scenario.config, **overrides)
    controller = FleetController(
        scenario.network, config=config, clock=StepClock()
    )
    series = []
    for event in scenario.events:
        controller.handle(event)
        series.append(controller.snapshot().objective)
    return controller, series


def bench_topology_rebalance(benchmark):
    """Objective-over-time under link failures: naive vs rebalancing."""

    def run_both():
        naive = _replay(drift_threshold=NAIVE_DRIFT_THRESHOLD)
        rebalancing = _replay()
        return naive, rebalancing

    benchmark(run_both)

    start = time.perf_counter()
    (naive, naive_series), (rebal, rebal_series) = run_both()
    elapsed = time.perf_counter() - start

    # replay contract: the same (scenario, seed) twice is byte-identical
    again, _ = _replay()
    assert again.log.to_text() == rebal.log.to_text(), (
        "replaying the abilene scenario twice diverged"
    )
    assert naive.metrics().rebalance_moves == 0, (
        "the naive controller was supposed to never move anything"
    )

    naive_total = ordered_sum(naive_series)
    rebal_total = ordered_sum(rebal_series)
    ratio = naive_total / rebal_total if rebal_total > 0 else float("inf")

    _RESULTS["events"] = len(naive_series)
    _RESULTS["naive_total"] = naive_total
    _RESULTS["naive_moves"] = naive.metrics().rebalance_moves
    _RESULTS["rebalancing_total"] = rebal_total
    _RESULTS["rebalancing_moves"] = rebal.metrics().rebalance_moves
    _RESULTS["ratio"] = ratio
    _RESULTS["naive_objective_series"] = naive_series
    _RESULTS["rebalancing_objective_series"] = rebal_series
    _RESULTS["wall_s"] = elapsed
    _flush_results()

    emit(
        "topology_rebalance",
        f"scenario {SCENARIO!r} (seed {SEED})"
        + (" (smoke)" if SMOKE else ""),
        f"events replayed:             {len(naive_series):10d}",
        f"naive: objective sum         {naive_total:10.4f} s "
        f"({naive.metrics().rebalance_moves} moves)",
        f"rebalancing: objective sum   {rebal_total:10.4f} s "
        f"({rebal.metrics().rebalance_moves} moves)",
        f"naive/rebalancing ratio:     {ratio:10.4f} "
        f"(floor {RATIO_FLOOR:.3f})",
    )
    if RATIO_FLOOR > 0:
        assert ratio >= RATIO_FLOOR, (
            f"rebalancing under link failures did not pay off: "
            f"naive/rebalancing ratio {ratio:.4f} < floor {RATIO_FLOOR:.3f}"
        )
