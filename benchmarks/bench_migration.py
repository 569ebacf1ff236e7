"""Benchmark: transition-aware rebalancing under parameter drift.

Replays the seeded ``drift`` scenario twice through the fleet
controller -- once *migration-blind* (the historical objective: every
strictly-improving move is taken, churn is free) and once
*transition-aware* (the hysteresis policy of
:class:`~repro.service.controller.FleetConfig`: a move must beat the
weighted one-time cost of hauling its operation state over the current
links). Both runs are billed identically afterwards:

    total = sum(objective after every event) + migration_paid

so the blind controller pays for the churn it ignored while deciding.
The headline number is ``naive_total / aware_total`` -- > 1 means
pricing migrations into the objective beats chasing every drifted
estimate. The ratio is a pure function of the seed (deterministic
replay), so the floor assertion holds on any hardware; override with
``BENCH_FLOOR_MIGRATION`` (0 disables).

Also asserts the frozen-oracle contract on the way: configuring a
migration model at weight 0 must leave the decision log byte-identical
to a run with no model at all.

Results land in ``output/BENCH_migration.json`` with the per-event
objective-over-time series for both modes. ``BENCH_SMOKE=1`` runs the
same scenario (it is already small) -- the CI smoke step executes every
path including the floor assertion.
"""

import os
import time
from dataclasses import replace

from repro.core.clock import StepClock
from repro.core.migration import MigrationCostModel
from repro.numeric import ordered_sum
from repro.service.controller import FleetController
from repro.service.scenarios import build_scenario

from _common import emit, host, perf_floor, write_json

SMOKE = os.environ.get("BENCH_SMOKE", "") not in ("", "0")

SCENARIO = "drift"
SEED = 0

#: State hauled per operation: 2 Mb of base checkpoint plus 0.1 bit per
#: cycle of accumulated state, and 100 ms of downtime per move -- heavy
#: enough that chasing every drifted estimate is a losing strategy.
MIGRATION = MigrationCostModel(
    state_bits_per_cycle=0.1,
    state_bits_base=2e6,
    downtime_s=0.1,
)

#: Decision weight of the aware controller: the one-time cost amortised
#: over the rebalance horizon (the billing weight below stays 1.0).
DECISION_WEIGHT = 0.05
COOLDOWN_TICKS = 1

#: Both modes are billed the full migration cost after the fact.
BILL_WEIGHT = 1.0

#: naive/aware total-objective ratio floor. Deterministic (seeded
#: replay), so asserted even in smoke mode; env-tunable regardless.
RATIO_FLOOR = perf_floor("MIGRATION", 1.0)

_RESULTS: dict = {
    "host": host(),
    "smoke": SMOKE,
    "scenario": SCENARIO,
    "seed": SEED,
    "migration": {
        "state_bits_per_cycle": MIGRATION.state_bits_per_cycle,
        "state_bits_base": MIGRATION.state_bits_base,
        "downtime_s": MIGRATION.downtime_s,
    },
    "decision_weight": DECISION_WEIGHT,
    "cooldown_ticks": COOLDOWN_TICKS,
    "bill_weight": BILL_WEIGHT,
    "ratio_floor": RATIO_FLOOR,
}


def _flush_results() -> None:
    write_json("BENCH_migration", _RESULTS)


def _replay(**overrides):
    """Run the drift scenario under config *overrides*.

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


def _billed_total(controller, series) -> float:
    return ordered_sum(series) + BILL_WEIGHT * controller.migration_paid


def bench_migration_hysteresis(benchmark):
    """Objective-over-time: migration-blind vs hysteresis controller."""

    def run_both():
        naive = _replay(migration=MIGRATION)
        aware = _replay(
            migration=MIGRATION,
            migration_weight=DECISION_WEIGHT,
            rebalance_cooldown_ticks=COOLDOWN_TICKS,
        )
        return naive, aware

    benchmark(run_both)

    start = time.perf_counter()
    (naive, naive_series), (aware, aware_series) = run_both()
    elapsed = time.perf_counter() - start

    # frozen-oracle: a weight-0 migration model must not change one
    # byte of the decisions relative to no model at all
    plain, _ = _replay()
    assert plain.log.to_text() == naive.log.to_text(), (
        "a migration model at weight 0 changed the decision log"
    )
    assert plain.migration_paid == 0.0

    naive_total = _billed_total(naive, naive_series)
    aware_total = _billed_total(aware, aware_series)
    ratio = naive_total / aware_total if aware_total > 0 else float("inf")

    _RESULTS["events"] = len(naive_series)
    _RESULTS["naive_objective_sum"] = ordered_sum(naive_series)
    _RESULTS["naive_migration_paid"] = naive.migration_paid
    _RESULTS["naive_moves"] = naive.metrics().rebalance_moves
    _RESULTS["naive_total"] = naive_total
    _RESULTS["aware_objective_sum"] = ordered_sum(aware_series)
    _RESULTS["aware_migration_paid"] = aware.migration_paid
    _RESULTS["aware_moves"] = aware.metrics().rebalance_moves
    _RESULTS["aware_total"] = aware_total
    _RESULTS["ratio"] = ratio
    _RESULTS["naive_objective_series"] = naive_series
    _RESULTS["aware_objective_series"] = aware_series
    _RESULTS["wall_s"] = elapsed
    _flush_results()

    emit(
        "migration_hysteresis",
        f"scenario {SCENARIO!r} (seed {SEED})"
        + (" (smoke)" if SMOKE else ""),
        f"events replayed:            {len(naive_series):10d}",
        f"naive: objective sum        {ordered_sum(naive_series):10.4f} s, "
        f"migration paid {naive.migration_paid:.4f} s "
        f"({naive.metrics().rebalance_moves} moves)",
        f"aware: objective sum        {ordered_sum(aware_series):10.4f} s, "
        f"migration paid {aware.migration_paid:.4f} s "
        f"({aware.metrics().rebalance_moves} moves)",
        f"billed totals (w={BILL_WEIGHT}):    naive {naive_total:.4f} s, "
        f"aware {aware_total:.4f} s",
        f"naive/aware ratio:          {ratio:10.4f} "
        f"(floor {RATIO_FLOOR:.3f})",
    )
    if RATIO_FLOOR > 0:
        assert ratio >= RATIO_FLOOR, (
            f"transition-aware controller did not pay off: "
            f"naive/aware ratio {ratio:.4f} < floor {RATIO_FLOOR:.3f}"
        )
