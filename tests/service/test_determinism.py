"""Determinism contract: replaying a seeded scenario is byte-identical."""

import dataclasses

import pytest

from repro.core.migration import MigrationCostModel
from repro.service.scenarios import build_scenario, replay
from tests.oracles import scalar_batch_pricing


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
        """Kernel vs row-by-row scalar pricing yields byte-identical logs.

        Scenarios are one-shot (the controller mutates the network), so
        each run rebuilds from ``(name, seed)``; the second run prices
        every candidate set through
        :class:`tests.oracles.ScalarBatchEvaluator`. Metrics are
        deliberately *not* compared: the oracle skips the kernel's
        dense delay matrices, so the route cache hit/miss counters
        diverge while every decision stays the same.
        """
        batched = replay(build_scenario(name, seed=7))
        with scalar_batch_pricing():
            scalar = replay(build_scenario(name, seed=7))
        assert scalar.log.to_text() == batched.log.to_text()
        assert scalar.evaluations == batched.evaluations


def _replay_with(name, seed, scalar=False, **overrides):
    """Replay builtin *name* with config fields overridden; the controller.

    *scalar* prices every candidate set through the row-by-row oracle.
    """
    scenario = build_scenario(name, seed=seed)
    scenario = dataclasses.replace(
        scenario, config=dataclasses.replace(scenario.config, **overrides)
    )
    if scalar:
        with scalar_batch_pricing() as oracles:
            controller = replay(scenario)
        assert sum(oracle.rows for oracle in oracles) > 0
    else:
        controller = replay(scenario)
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
    """Scalar and kernel pricing pick the same moves.

    The two paths only supply candidate execution times (and move
    costs when migration-aware) to the one vectorised rebalance scan,
    so the logs are byte-identical and the evaluation counter -- one
    per candidate plus one per scan start -- is equal too. The scalar
    path is the row-by-row oracle standing in for the kernel.
    """
    policy = POLICIES[name]
    default = _replay_with(name, 3, **policy)
    assert default.metrics().rebalance_moves > 0
    scalar = _replay_with(name, 3, scalar=True, **policy)
    assert scalar.log.to_text() == default.log.to_text()
    assert scalar.evaluations == default.evaluations
