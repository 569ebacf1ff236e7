"""Determinism contract: replaying a seeded scenario is byte-identical."""

import dataclasses

import pytest

from repro.core.migration import MigrationCostModel
from repro.service.scenarios import build_scenario, replay


@pytest.mark.parametrize("name", ["steady", "churn"])
class TestByteIdenticalReplay:
    def test_fleet_log_is_byte_identical(self, name):
        first = replay(name, seed=7).log.to_text()
        second = replay(name, seed=7).log.to_text()
        assert first == second

    def test_metrics_are_byte_identical(self, name):
        first = replay(name, seed=7).metrics().to_text()
        second = replay(name, seed=7).metrics().to_text()
        assert first == second

    def test_different_seeds_diverge(self, name):
        base = replay(name, seed=7).log.to_text()
        other = replay(name, seed=8).log.to_text()
        assert base != other

    def test_batch_pricing_does_not_change_decisions(self, name):
        """Batch vs scalar candidate pricing yields byte-identical logs.

        Scenarios are one-shot (the controller mutates the network), so
        each run rebuilds from ``(name, seed)`` with only ``use_batch``
        flipped. Metrics are deliberately *not* compared: the two paths
        touch the route / cost-model caches differently, so the cache
        hit/miss counters diverge while every decision stays the same.
        """
        logs = []
        for use_batch in (True, False):
            scenario = build_scenario(name, seed=7)
            scenario = dataclasses.replace(
                scenario,
                config=dataclasses.replace(
                    scenario.config, use_batch=use_batch
                ),
            )
            logs.append(replay(scenario).log.to_text())
        assert logs[0] == logs[1]


def _replay_with(name, seed, **overrides):
    """Replay builtin *name* with config fields overridden; the controller."""
    scenario = build_scenario(name, seed=seed)
    scenario = dataclasses.replace(
        scenario, config=dataclasses.replace(scenario.config, **overrides)
    )
    controller = replay(scenario)
    controller.close()
    return controller


#: Per-scenario policy: ``drift`` runs migration-aware, so move costs
#: enter the selection alongside the priced executions.
POLICIES = {
    "surge": {},
    "drift": {
        "migration": MigrationCostModel(
            state_bits_per_cycle=0.1, state_bits_base=2e6, downtime_s=0.1
        ),
        "migration_weight": 0.01,
        "rebalance_cooldown_ticks": 1,
    },
    "abilene": {},
}


@pytest.mark.parametrize("name", sorted(POLICIES))
def test_every_pricing_path_feeds_one_selection(name):
    """Scalar, pooled and default pricing pick the same moves.

    The three paths only supply candidate execution times (and move
    costs when migration-aware) to the one vectorised rebalance scan,
    so the logs are byte-identical and the evaluation counter -- one
    per candidate plus one per scan start -- is equal too.
    """
    policy = POLICIES[name]
    default = _replay_with(name, 3, **policy)
    assert default.metrics().rebalance_moves > 0
    for variant in ({"use_batch": False}, {"parallel_workers": 2}):
        other = _replay_with(name, 3, **policy, **variant)
        assert other.log.to_text() == default.log.to_text(), variant
        assert other.evaluations == default.evaluations, variant
