"""Drift events, the hysteresis policy and migration accounting.

The transition-aware controller surface: parameter-drift event
handling (``workload-drift`` / ``capacity-drift``), the rebalance
hysteresis knobs (``migration_weight``, ``rebalance_cooldown_ticks``),
the admission limit's validation and the ``migration_paid`` meter. The
frozen-oracle contract -- a configured migration model at weight 0
changes *accounting only*, never one decision byte -- is pinned here
end-to-end on the seeded ``drift`` scenario.
"""

import random
from dataclasses import replace

import pytest

from repro.core.clock import StepClock
from repro.core.migration import MigrationCostModel
from repro.exceptions import ServiceError
from repro.service.controller import FleetConfig, FleetController
from repro.service.events import (
    CapacityDrift,
    DeployRequest,
    Tick,
    UndeployRequest,
    WorkloadDrift,
)
from repro.service.scenarios import build_scenario, drift_workflow

from .conftest import make_line

MODEL = MigrationCostModel(
    state_bits_per_cycle=0.1, state_bits_base=2e6, downtime_s=0.1
)


def has_detail(record, key):
    return any(name == key for name, _value in record.details)


def controller_for(network, **overrides):
    config = FleetConfig(**overrides)
    return FleetController(network, config=config, clock=StepClock())


def replay_drift(seed=0, **overrides):
    """The drift scenario under config *overrides*."""
    scenario = build_scenario("drift", seed=seed)
    controller = FleetController(
        scenario.network,
        config=replace(scenario.config, **overrides),
        clock=StepClock(),
    )
    for event in scenario.events:
        controller.handle(event)
    return controller


class TestConfigValidation:
    def test_weight_without_model_rejected(self):
        with pytest.raises(ServiceError, match="MigrationCostModel"):
            FleetConfig(migration_weight=0.5)

    @pytest.mark.parametrize("bad", [-1.0, float("nan"), float("inf")])
    def test_bad_migration_weight_rejected(self, bad):
        with pytest.raises(ServiceError, match="migration_weight"):
            FleetConfig(migration=MODEL, migration_weight=bad)

    @pytest.mark.parametrize("bad", [-0.5, float("nan"), float("inf"), "0.05"])
    def test_bad_admission_limit_rejected(self, bad):
        # unchecked, nan would admit every deploy, a negative limit
        # reject every one, and a string fail only at the first deploy
        with pytest.raises(ServiceError, match="admission_load_limit_s"):
            FleetConfig(admission_load_limit_s=bad)

    def test_negative_cooldown_rejected(self):
        with pytest.raises(ServiceError, match="rebalance_cooldown_ticks"):
            FleetConfig(rebalance_cooldown_ticks=-1)

    def test_model_alone_is_fine(self):
        config = FleetConfig(migration=MODEL)
        assert config.migration_weight == 0.0


class TestWorkloadDrift:
    def test_updates_estimates_in_place(self, fleet_network):
        workflow = make_line("alpha", [10e6, 20e6, 30e6])
        controller = controller_for(fleet_network)
        controller.handle(DeployRequest("alpha", workflow))
        placement = controller.state.tenant("alpha").deployment.as_dict()
        drifted = drift_workflow(workflow, random.Random(4), 0.5)
        record = controller.handle(WorkloadDrift("alpha", drifted))
        assert record.action == "drifted"
        assert record.detail("operations") == "3"
        hosted = controller.state.tenant("alpha")
        assert hosted.workflow is drifted
        # the placement survives untouched; only the cost model moved
        assert hosted.deployment.as_dict() == placement

    def test_drift_changes_the_priced_objective(self, fleet_network):
        workflow = make_line("alpha", [10e6, 20e6, 30e6], bits=1_000_000)
        controller = controller_for(fleet_network)
        controller.handle(DeployRequest("alpha", workflow))
        before = controller.snapshot().objective
        heavier = workflow.copy()
        for message in heavier.messages:
            heavier.replace_message(
                replace(message, size_bits=message.size_bits * 64)
            )
        controller.handle(WorkloadDrift("alpha", heavier))
        assert controller.snapshot().objective != before

    def test_unknown_tenant_rejected(self, fleet_network):
        controller = controller_for(fleet_network)
        record = controller.handle(
            WorkloadDrift("ghost", make_line("ghost", [1e6]))
        )
        assert record.action == "rejected"
        assert record.detail("reason") == "unknown-tenant"

    def test_changed_operation_set_rejected(self, fleet_network):
        controller = controller_for(fleet_network)
        controller.handle(
            DeployRequest("alpha", make_line("alpha", [10e6, 20e6]))
        )
        record = controller.handle(
            WorkloadDrift("alpha", make_line("alpha", [10e6, 20e6, 30e6]))
        )
        assert record.action == "rejected"
        assert record.detail("reason") == "operations-changed"
        assert len(controller.state.tenant("alpha").workflow) == 2


class TestCapacityDrift:
    def test_rescales_a_server(self, fleet_network):
        controller = controller_for(fleet_network)
        controller.handle(
            DeployRequest("alpha", make_line("alpha", [10e6, 20e6]))
        )
        before = controller.snapshot().objective
        # S3 hosts real load, so halving it must re-price the fleet
        record = controller.handle(CapacityDrift("S3", 1e9))
        assert record.action == "rescaled"
        assert (
            controller.state.network.server("S3").power_hz == 1e9
        )
        assert controller.snapshot().objective != before

    def test_unknown_server_rejected(self, fleet_network):
        controller = controller_for(fleet_network)
        record = controller.handle(CapacityDrift("S99", 1e9))
        assert record.action == "rejected"
        assert record.detail("reason") == "unknown-server"

    @pytest.mark.parametrize("bad", [0.0, -1e9, float("nan"), float("inf")])
    def test_bad_power_rejected(self, fleet_network, bad):
        controller = controller_for(fleet_network)
        record = controller.handle(CapacityDrift("S1", bad))
        assert record.action == "rejected"
        assert record.detail("reason") == "bad-power"
        assert controller.state.network.server("S1").power_hz == 1e9


class TestFrozenOracle:
    """A weight-0 migration model changes accounting, never decisions."""

    def test_weight_zero_log_is_byte_identical(self):
        plain = replay_drift()
        billed = replay_drift(migration=MODEL)
        assert billed.log.to_text() == plain.log.to_text()
        assert plain.migration_paid == 0.0
        # ... but the blind controller's churn is now being metered
        assert billed.migration_paid > 0.0
        assert billed.metrics().migration_paid == billed.migration_paid

    def test_migration_row_rendered_only_when_paid(self):
        plain = replay_drift()
        billed = replay_drift(migration=MODEL)
        assert "migration paid" not in plain.metrics().to_text()
        assert "migration paid" in billed.metrics().to_text()

    def test_naive_rebalances_omit_migration_details(self):
        controller = replay_drift(migration=MODEL)
        rebalanced = controller.log.filter("tick", "rebalanced")
        assert rebalanced
        for record in rebalanced:
            assert not has_detail(record, "migration")
            assert not has_detail(record, "net_gain")


class TestHysteresis:
    def test_prohibitive_weight_freezes_the_fleet(self):
        aware = replay_drift(migration=MODEL, migration_weight=1e9)
        assert aware.metrics().rebalance_moves == 0
        assert aware.migration_paid == 0.0

    def test_aware_controller_moves_less_than_blind(self):
        blind = replay_drift(migration=MODEL)
        aware = replay_drift(
            migration=MODEL,
            migration_weight=0.05,
            rebalance_cooldown_ticks=1,
        )
        assert blind.metrics().rebalance_moves > 0
        assert (
            aware.metrics().rebalance_moves
            < blind.metrics().rebalance_moves
        )
        assert aware.migration_paid < blind.migration_paid

    def test_aware_rebalances_carry_migration_details(self):
        aware = replay_drift(migration=MODEL, migration_weight=1e-6)
        rebalanced = aware.log.filter("tick", "rebalanced")
        assert rebalanced
        for record in rebalanced:
            assert has_detail(record, "migration")
            assert has_detail(record, "net_gain")


class TestCooldown:
    def test_moved_tenants_start_their_cooldown(self):
        scenario = build_scenario("drift", seed=0)
        controller = FleetController(
            scenario.network,
            config=replace(scenario.config, rebalance_cooldown_ticks=3),
            clock=StepClock(),
        )
        cooled = None
        for event in scenario.events:
            record = controller.handle(event)
            if (
                record.event == "tick"
                and record.action == "rebalanced"
                and record.detail("churn") != "0"
            ):
                cooled = dict(controller._tenant_cooldowns)
                break
        assert cooled, "drift scenario produced no moving rebalance"
        assert all(ticks == 3 for ticks in cooled.values())
        assert len(cooled) >= 1

    def test_cooldown_decays_one_per_tick_and_expires(self, fleet_network):
        controller = controller_for(fleet_network)
        controller.handle(
            DeployRequest("alpha", make_line("alpha", [10e6, 20e6]))
        )
        controller._tenant_cooldowns["alpha"] = 2
        controller.handle(Tick())  # steady ticks still age cooldowns
        assert controller._tenant_cooldowns == {"alpha": 1}
        controller.handle(Tick())
        assert controller._tenant_cooldowns == {}

    def test_undeploy_clears_the_cooldown(self, fleet_network):
        controller = controller_for(fleet_network)
        controller.handle(
            DeployRequest("alpha", make_line("alpha", [10e6, 20e6]))
        )
        controller._tenant_cooldowns["alpha"] = 5
        controller.handle(UndeployRequest("alpha"))
        assert "alpha" not in controller._tenant_cooldowns

    def test_cooldown_damps_total_churn(self):
        free = replay_drift()
        cooled = replay_drift(rebalance_cooldown_ticks=10)
        assert free.metrics().rebalance_moves > 0
        assert (
            cooled.metrics().rebalance_moves
            <= free.metrics().rebalance_moves
        )
